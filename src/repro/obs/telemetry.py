"""Unified telemetry layer: the event bus and component hooks.

``Telemetry`` is the observability counterpart of
:class:`~repro.sim.sanitizer.Sanitizer` and follows the same
attachment contract: when enabled (``REPRO_TELEMETRY`` environment
variable, the harness's ``--trace-out`` / ``--interval-stats`` /
``--profile`` flags, or an explicit ``Telemetry(sim, config)`` call)
it hangs off the shared :class:`~repro.sim.kernel.Simulator` and
components self-register at construction::

    tel = getattr(sim, "telemetry", None)
    if tel is not None:
        tel.watch_l1(self)

When disabled the hooks cost nothing: ``sim.telemetry`` is ``None``,
no method is wrapped, and no per-event guard exists anywhere.

The layer's pillars are each independently enabled by
:class:`TelemetryConfig` (DESIGN.md §8):

- **spans** (:mod:`repro.obs.spans`): request-lifecycle spans for
  core loads/stores, floated-stream elements, and floated-stream
  lifetimes, exportable as Chrome trace-event JSON;
- **interval** (:mod:`repro.obs.interval`): a time-series sampler
  snapshotting Stats deltas every N cycles;
- **profile** (:mod:`repro.obs.profiler`): a host-side profiler
  attributing wall-clock and event counts per event callback;
- **provenance** (:mod:`repro.obs.provenance`): the decision ledger
  plus tile/link activity matrices (DESIGN.md §11);
- **attribution** (:mod:`repro.obs.attribution`): per-core cycle
  accounting into CPI-stack buckets with an exact conservation
  assertion (DESIGN.md §15).

Underneath the pillars sits a typed publish/subscribe **event bus**:
the wrapped component methods ``publish`` :class:`BusEvent` records
(kind, cycle, tile, human detail, structured data) and any number of
consumers ``subscribe`` per kind — the span collector, the interval
sampler's gauges and any caller holding ``chip.sim.telemetry`` are
all plain subscribers. Publishing with no subscriber for the kind is a
dictionary miss and an integer increment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

ENV_TELEMETRY = "REPRO_TELEMETRY"
ENV_INTERVAL = "REPRO_TELEMETRY_INTERVAL"
ENV_TELEMETRY_DIR = "REPRO_TELEMETRY_DIR"

_OFF_VALUES = ("", "0", "off", "false", "no")
_ALL_VALUES = ("1", "on", "true", "yes", "all")

PILLARS = ("spans", "interval", "profile", "provenance", "attribution")

DEFAULT_INTERVAL = 10_000

# Every kind the instrumented components publish. The first six are
# the stream-protocol lifecycle (float -> ... -> end).
# ``decision`` carries float/no-float/sink/config/follow verdicts with
# their full policy-input snapshot (provenance pillar, DESIGN.md §11).
KINDS = (
    "float", "sink", "migrate", "confluence", "credit", "end",
    "l1_miss", "l1_fill", "l2_miss", "l2_data", "l3_demand",
    "getu", "datau", "dram", "noc", "decision",
)


@dataclass
class TelemetryConfig:
    """Which pillars are active, and their bounds.

    A config with every pillar off is still useful: the event bus and
    component hooks run, so bus subscribers see every event.
    """

    spans: bool = False
    interval: int = 0  # sampling period in cycles; 0 disables
    profile: bool = False
    provenance: bool = False  # decision ledger + tile/link activity
    attribution: bool = False  # per-core CPI-stack cycle accounting
    max_spans: int = 200_000  # open+closed span cap (drops counted)
    max_noc_events: int = 20_000  # exported NoC flow arrows cap
    max_decisions: int = 100_000  # provenance ledger cap (drops counted)


def enabled_by_env() -> bool:
    """Is ``REPRO_TELEMETRY`` set to a truthy value?"""
    return os.environ.get(ENV_TELEMETRY, "").strip().lower() not in _OFF_VALUES


def config_from_env() -> Optional[TelemetryConfig]:
    """Parse ``REPRO_TELEMETRY`` (``1``/``all`` or a comma list of
    pillars) plus ``REPRO_TELEMETRY_INTERVAL`` into a config."""
    raw = os.environ.get(ENV_TELEMETRY, "").strip().lower()
    if raw in _OFF_VALUES:
        return None
    if raw in _ALL_VALUES:
        enabled = set(PILLARS)
    else:
        enabled = {p.strip() for p in raw.split(",") if p.strip()}
        unknown = enabled - set(PILLARS)
        if unknown:
            raise ValueError(
                f"{ENV_TELEMETRY} names unknown pillars {sorted(unknown)}; "
                f"valid: {PILLARS} (or 1/all)"
            )
    interval = 0
    if "interval" in enabled:
        interval = int(os.environ.get(ENV_INTERVAL, str(DEFAULT_INTERVAL)))
    return TelemetryConfig(
        spans="spans" in enabled,
        interval=interval,
        profile="profile" in enabled,
        provenance="provenance" in enabled,
        attribution="attribution" in enabled,
    )


def maybe_attach(sim) -> Optional["Telemetry"]:
    """Attach a telemetry layer to ``sim`` iff the environment asks."""
    config = config_from_env()
    if config is not None:
        return Telemetry(sim, config)
    return None


@dataclass(frozen=True)
class BusEvent:
    """One published telemetry event."""

    kind: str
    cycle: int
    tile: int
    detail: str = ""
    data: Dict[str, Any] = field(default_factory=dict)


class Telemetry:
    """The per-simulator telemetry hub (bus + pillars + hooks)."""

    _WATCH_FLAG = "_obs_watched"

    def __init__(self, sim, config: Optional[TelemetryConfig] = None) -> None:
        from repro.obs.interval import IntervalSampler
        from repro.obs.profiler import KernelProfiler
        from repro.obs.spans import SpanCollector

        self.sim = sim
        sim.telemetry = self
        self.config = config or TelemetryConfig()
        self._subs: Dict[str, List[Callable[[BusEvent], None]]] = {}
        self.bus_events = 0
        # Gauge: floated streams currently alive, as (tile, sid) pairs
        # (maintained on the bus path so every pillar can read it).
        self._alive: Set[Tuple[int, Optional[int]]] = set()
        self.spans: Optional[SpanCollector] = (
            SpanCollector(self, self.config) if self.config.spans else None
        )
        self.sampler: Optional[IntervalSampler] = (
            IntervalSampler(self.config.interval, alive=lambda: len(self._alive))
            if self.config.interval > 0 else None
        )
        self.profiler: Optional[KernelProfiler] = (
            KernelProfiler() if self.config.profile else None
        )
        self.provenance = None
        if self.config.provenance:
            from repro.obs.provenance import ProvenanceLedger

            self.provenance = ProvenanceLedger(self, self.config)
        self.attribution = None
        if self.config.attribution:
            from repro.obs.attribution import CycleAccountant

            self.attribution = CycleAccountant(self)
        # Kernel heartbeat: the profiler times each dispatch, the
        # sampler checks its period boundary after each one.
        if self.profiler is not None:
            sim.add_step_observer(
                self.profiler.before_step, self.profiler.after_step)
        if self.sampler is not None:
            sampler = self.sampler
            sim.add_step_observer(after=lambda: sampler.on_step(sim.now))

    # ------------------------------------------------------------------
    # event bus
    # ------------------------------------------------------------------
    def subscribe(self, kind: str, handler: Callable[[BusEvent], None]) -> None:
        """Register ``handler`` for every published event of ``kind``."""
        if kind not in KINDS:
            raise ValueError(f"unknown telemetry kind {kind!r}")
        self._subs.setdefault(kind, []).append(handler)

    def publish(self, kind: str, tile: int, detail: str = "", **data: Any) -> None:
        """Publish one event to every subscriber of ``kind``."""
        self.bus_events += 1
        # Floated-stream gauge bookkeeping (set ops are idempotent, so
        # sink-then-end double closes are harmless).
        if kind == "float":
            self._alive.add((tile, data.get("sid")))
        elif kind == "sink":
            self._alive.discard((tile, data.get("sid")))
        elif kind == "end":
            self._alive.discard((data.get("requester", tile), data.get("sid")))
        subs = self._subs.get(kind)
        if not subs:
            return
        event = BusEvent(
            kind=kind, cycle=self.sim.now, tile=tile, detail=detail, data=data,
        )
        for handler in subs:
            handler(event)

    @property
    def streams_alive(self) -> int:
        return len(self._alive)

    # ------------------------------------------------------------------
    # component hooks (sanitizer-style constructor registration)
    # ------------------------------------------------------------------
    def _claim(self, obj: Any) -> bool:
        """True exactly once per object — guards double wrapping when
        a component is watched twice."""
        if getattr(obj, self._WATCH_FLAG, None) is self:
            return False
        setattr(obj, self._WATCH_FLAG, self)
        return True

    @staticmethod
    def _line(addr: int) -> int:
        from repro.mem.addr import line_addr

        return line_addr(addr)

    def watch_network(self, net) -> None:
        """Publish a ``noc`` event per delivery scheduling: carries the
        injection cycle (now) and the arrival cycle, which is exactly
        the pair a Chrome-trace flow arrow needs."""
        if not self._claim(net):
            return
        tel = self
        inner = net._deliver_at

        def deliver_at(when: int, packet) -> None:
            tel.publish(
                "noc", tile=packet.src,
                detail=f"{packet.kind} -> {packet.dst}:{packet.dst_port}",
                dst=packet.dst, port=packet.dst_port, cls=packet.kind,
                pid=packet.pid, arrive=when,
            )
            inner(when, packet)

        deliver_at.__qualname__ = getattr(inner, "__qualname__", "Network._deliver_at")
        net._deliver_at = deliver_at
        if self.profiler is not None:
            # Per-endpoint host-time attribution: the lane cache and
            # the batched _drain_cycle dispatch make the step observer
            # see a shared wrapper, so wrap each registration with a
            # timer that credits the real handler's __qualname__. The
            # observer's dispatch sample subtracts this nested time
            # (KernelProfiler.record_inner) to avoid double counting.
            from time import perf_counter

            profiler = self.profiler
            inner_register = net.register

            def register(tile: int, port: str, handler) -> None:
                name = getattr(handler, "__qualname__", repr(handler))

                def timed(pkt) -> None:
                    t0 = perf_counter()
                    handler(pkt)
                    profiler.record_inner(name, perf_counter() - t0)

                timed.__qualname__ = name
                inner_register(tile, port, timed)

            register.__qualname__ = getattr(
                inner_register, "__qualname__", "Network.register"
            )
            net.register = register
        if self.provenance is None:
            return
        # Per-link flit accounting for the differential observatory's
        # NoC heatmap: recompute each packet's route (the mesh routing
        # is deterministic) and charge its flits to every hop.
        ledger = self.provenance
        inner_send = net.send

        def send(packet, extra_delay: int = 0):
            route = net._route_cache.get((packet.src, packet.dst))
            if route is None:
                route = net.mesh.route(packet.src, packet.dst)
            ledger.record_links(route, packet.flits(net.link_bits))
            return inner_send(packet, extra_delay)

        send.__qualname__ = getattr(inner_send, "__qualname__", "Network.send")
        net.send = send
        inner_multicast = net.multicast

        def multicast(src, dsts, kind, payload_bits, dst_port, body=None):
            from repro.noc.topology import Mesh
            from repro.noc.message import Packet

            uniq = list(dict.fromkeys(dsts))
            if uniq:
                template = Packet(
                    src=src, dst=uniq[0], kind=kind,
                    payload_bits=payload_bits, dst_port=dst_port,
                )
                links = Mesh.unique_links(net.mesh.multicast_tree(src, uniq))
                ledger.record_links(sorted(links),
                                    template.flits(net.link_bits))
            return inner_multicast(src, dsts, kind, payload_bits,
                                   dst_port, body)

        multicast.__qualname__ = getattr(
            inner_multicast, "__qualname__", "Network.multicast"
        )
        net.multicast = multicast

    def watch_core(self, core) -> None:
        """Install the cycle accountant's commit-front hooks. A no-op
        unless the attribution pillar is on — every other pillar keeps
        the core entirely unhooked."""
        if self.attribution is None:
            return
        if not self._claim(core):
            return
        self.attribution.watch_core(core)

    def watch_l1(self, l1) -> None:
        if not self._claim(l1):
            return
        tel = self
        inner_miss = l1._miss

        def miss(req) -> None:
            base = tel._line(req.addr)
            fresh = l1.mshr.lookup(base) is None
            inner_miss(req)
            tel.publish(
                "l1_miss", tile=l1.tile, detail=f"{base:#x}",
                addr=base, write=req.is_write, prefetch=req.prefetch,
                fresh=fresh, sid=req.stream_id, floating=req.floating,
            )

        miss.__qualname__ = getattr(inner_miss, "__qualname__", "L1Cache._miss")
        l1._miss = miss
        inner_fill = l1._fill

        def fill(base: int, result) -> None:
            inner_fill(base, result)
            tel.publish(
                "l1_fill", tile=l1.tile, detail=f"{base:#x}", addr=base,
                reason=l1.last_fill_reason,
            )

        fill.__qualname__ = getattr(inner_fill, "__qualname__", "L1Cache._fill")
        l1._fill = fill

    def watch_l2(self, l2) -> None:
        if not self._claim(l2):
            return
        tel = self
        inner_miss = l2._miss

        def miss(req, line) -> None:
            base = tel._line(req.addr)
            fresh = l2.mshr.lookup(base) is None
            inner_miss(req, line)
            tel.publish(
                "l2_miss", tile=l2.tile, detail=f"{base:#x}",
                addr=base, write=req.is_write, prefetch=req.prefetch,
                fresh=fresh, via=l2.last_miss_kind,
            )

        miss.__qualname__ = getattr(inner_miss, "__qualname__", "L2Cache._miss")
        l2._miss = miss
        inner_data = l2._data

        def data(pkt, msg) -> None:
            inner_data(pkt, msg)
            base = tel._line(msg.addr)
            tel.publish(
                "l2_data", tile=l2.tile, detail=f"{base:#x}",
                addr=base, src=pkt.src,
            )

        data.__qualname__ = getattr(inner_data, "__qualname__", "L2Cache._data")
        l2._data = data

    def watch_l3(self, bank) -> None:
        if not self._claim(bank):
            return
        tel = self
        inner_demand = bank._demand

        def demand(src: int, msg) -> None:
            inner_demand(src, msg)
            tel.publish(
                "l3_demand", tile=bank.tile,
                detail=f"{msg.op} {tel._line(msg.addr):#x} "
                       f"{bank.last_outcome}",
                addr=tel._line(msg.addr), op=msg.op,
                requester=msg.requester, lat=bank.latency,
                outcome=bank.last_outcome,
            )

        demand.__qualname__ = getattr(inner_demand, "__qualname__", "L3Bank._demand")
        bank._demand = demand
        inner_read = bank.stream_read

        def stream_read(addr: int, requester: int, **kwargs) -> None:
            tel.publish(
                "getu", tile=bank.tile,
                detail=f"sid {kwargs.get('stream_id')} "
                       f"elem {kwargs.get('element')}",
                addr=tel._line(addr), requester=requester,
                sid=kwargs.get("stream_id"), element=kwargs.get("element"),
                category=kwargs.get("category", "float_affine"),
            )
            inner_read(addr, requester, **kwargs)

        stream_read.__qualname__ = getattr(
            inner_read, "__qualname__", "L3Bank.stream_read"
        )
        bank.stream_read = stream_read

    @staticmethod
    def _wrap_port(net, tile: int, port: str, make) -> None:
        """Wrap the handler the network holds for ``(tile, port)``.

        ``handle`` methods reached *through the network* must be
        wrapped in the registration table — the network dispatches the
        callable it stored, so patching the instance attribute after
        ``net.register`` ran would never fire. Wrapping the stored
        entry also composes with the sanitizer's own handler wrapper.
        """
        key = (tile, port)
        inner = net._handlers.get(key)
        if inner is None:
            return
        wrapped = make(inner)
        wrapped.__qualname__ = getattr(
            inner, "__qualname__", f"handler[{tile},{port}]"
        )
        net._handlers[key] = wrapped

    def watch_dram(self, ctrl) -> None:
        if not self._claim(ctrl):
            return
        tel = self

        def make(inner):
            def handle(pkt) -> None:
                body = pkt.body
                inner(pkt)
                tel.publish(
                    "dram", tile=ctrl.tile,
                    detail=f"{body.op} {body.addr:#x}",
                    addr=tel._line(body.addr), op=body.op,
                    done=ctrl.last_done,
                )
            return handle

        self._wrap_port(ctrl.net, ctrl.tile, "dram", make)

    @staticmethod
    def _policy_snapshot(se, stream) -> Dict[str, Any]:
        """The float/sink policy's complete input state for one stream
        (Table II history + pattern class + bank locality + progress)
        — what a provenance record stores as the decision's evidence."""
        ent = se.history.entry(stream.sid)
        pattern = stream.spec.pattern
        snap: Dict[str, Any] = {
            "requests": ent.requests, "reuses": ent.reuses,
            "misses": ent.misses, "aliased": ent.aliased,
            "miss_ratio": round(ent.miss_ratio, 4),
            "pattern": type(pattern).__name__,
            "length": stream.spec.length,
            "next_issue": stream.next_issue,
            "consecutive_hits": stream.consecutive_hits,
            # Windowed shadow counters + revocation state (the smart
            # policy's extra decision inputs; zero under static).
            "w_requests": ent.w_requests, "w_reuses": ent.w_reuses,
            "w_misses": ent.w_misses, "w_stores": ent.w_stores,
            "cooldown": ent.cooldown, "revokes": ent.revokes,
            "policy": getattr(se, "float_policy", "static"),
        }
        if stream.plan is not None:
            snap["plan"] = stream.plan.describe()
        footprint = getattr(pattern, "footprint_bytes", None)
        if footprint is not None:
            snap["footprint"] = footprint()
        if se.se_l2 is not None and stream.spec.length > 0:
            idx = min(stream.next_issue, stream.spec.length - 1)
            snap["home_bank"] = se.se_l2.nuca.bank_of(pattern.address(idx))
        return snap

    def watch_se_core(self, se) -> None:
        if not self._claim(se):
            return
        tel = self
        ledger = self.provenance is not None
        inner_float = se._float

        def float_(stream, reason="history", plan=None) -> None:
            was = stream.floating
            if ledger and not was:
                inputs = tel._policy_snapshot(se, stream)
                if plan is not None:
                    inputs["plan"] = plan.describe()
                tel.publish(
                    "decision", tile=se.tile,
                    detail=f"float sid {stream.sid} ({reason})",
                    verdict="float", sid=stream.sid, reason=reason,
                    inputs=inputs,
                )
            inner_float(stream, reason, plan)
            if not was and stream.floating:
                tel.publish(
                    "float", tile=se.tile,
                    detail=f"sid {stream.sid} @elem {stream.float_start}",
                    sid=stream.sid, elem=stream.float_start,
                )

        float_.__qualname__ = getattr(inner_float, "__qualname__", "SECore._float")
        se._float = float_
        inner_sink = se._sink

        def sink(stream, reason="policy") -> None:
            was = stream.floating
            if ledger and was and stream.parent is None:
                # A smart-policy revocation is its own verdict: the
                # policy actively undid a float it now judges bad
                # (the reason names the trigger).
                verdict = "revoke" if reason.startswith("revoke") else "sink"
                tel.publish(
                    "decision", tile=se.tile,
                    detail=f"{verdict} sid {stream.sid} ({reason})",
                    verdict=verdict, sid=stream.sid, reason=reason,
                    inputs=tel._policy_snapshot(se, stream),
                )
            inner_sink(stream, reason)
            if was and not stream.floating:
                tel.publish(
                    "sink", tile=se.tile, detail=f"sid {stream.sid}",
                    sid=stream.sid,
                )

        sink.__qualname__ = getattr(inner_sink, "__qualname__", "SECore._sink")
        se._sink = sink
        if not ledger:
            return
        # Terminal no-float verdicts: a load stream that retires without
        # ever floating records why the policy never fired (its final
        # history snapshot is ROADMAP item 3's training signal).
        inner_end = se.end

        def end(sids) -> None:
            for sid in sids:
                stream = se.streams.get(sid)
                if (
                    stream is not None and not stream.floating
                    and stream.spec.kind == "load" and stream.parent is None
                ):
                    tel.publish(
                        "decision", tile=se.tile,
                        detail=f"no_float sid {sid} (end)",
                        verdict="no_float", sid=sid, reason="never_qualified",
                        inputs=tel._policy_snapshot(se, stream),
                    )
            inner_end(sids)

        end.__qualname__ = getattr(inner_end, "__qualname__", "SECore.end")
        se.end = end

    def watch_se_l2(self, se) -> None:
        if not self._claim(se):
            return
        tel = self

        def make(inner):
            def handle(pkt) -> None:
                body = pkt.body
                inner(pkt)
                # DataU arrivals only (EndAck/StreamInv have no element).
                element = getattr(body, "element", None)
                if element is None:
                    return
                sid = body.stream_id
                if isinstance(body.se_info, list):
                    for tile, member_sid in body.se_info:
                        if tile == se.tile:
                            sid = member_sid
                            break
                tel.publish(
                    "datau", tile=se.tile,
                    detail=f"sid {sid} elem {element}",
                    sid=sid, element=element, src=pkt.src,
                )
            return handle

        self._wrap_port(se.net, se.tile, "se_l2", make)
        if self.provenance is None:
            return
        inner_follow = se._try_follow

        def try_follow(spec) -> bool:
            followed = inner_follow(spec)
            if followed:
                leader, _role = se._sid_index[spec.sid]
                tel.publish(
                    "decision", tile=se.tile,
                    detail=f"follow sid {spec.sid} -> leader "
                           f"{leader.sid}",
                    verdict="follow", sid=spec.sid, reason="constant_offset",
                    inputs={
                        "leader_sid": leader.sid,
                        "delta": leader.followers[spec.sid].delta,
                        "pattern": type(spec.pattern).__name__,
                        "length": spec.length,
                        "epoch": leader.epoch,
                    },
                )
            return followed

        try_follow.__qualname__ = getattr(
            inner_follow, "__qualname__", "SEL2._try_follow"
        )
        se._try_follow = try_follow

    def watch_se_l3(self, se3) -> None:
        if not self._claim(se3):
            return
        tel = self
        inner_migrate = se3._migrate

        def migrate(stream, addr) -> None:
            to_bank = se3.nuca.bank_of(addr)
            tel.publish(
                "migrate", tile=se3.tile,
                detail=f"{stream.key} elem {stream.next_idx} -> bank {to_bank}",
                requester=stream.requester, sid=stream.spec.sid,
                elem=stream.next_idx, to_bank=to_bank, epoch=stream.epoch,
                credits=stream.credits,
            )
            inner_migrate(stream, addr)

        migrate.__qualname__ = getattr(inner_migrate, "__qualname__", "SEL3._migrate")
        se3._migrate = migrate
        inner_merge = se3._try_merge

        def try_merge(stream) -> None:
            inner_merge(stream)
            if stream.group is not None:
                tel.publish(
                    "confluence", tile=se3.tile,
                    detail=f"{stream.key} joined group of "
                           f"{len(stream.group.members)}",
                    requester=stream.requester, sid=stream.spec.sid,
                    size=len(stream.group.members),
                )

        try_merge.__qualname__ = getattr(inner_merge, "__qualname__", "SEL3._try_merge")
        se3._try_merge = try_merge
        inner_credit = se3._credit

        def credit(body) -> None:
            tel.publish(
                "credit", tile=se3.tile,
                detail=f"({body.requester},{body.sid}) +{body.count}",
                requester=body.requester, sid=body.sid, count=body.count,
            )
            inner_credit(body)

        credit.__qualname__ = getattr(inner_credit, "__qualname__", "SEL3._credit")
        se3._credit = credit
        inner_end = se3._end

        def end(body) -> None:
            tel.publish(
                "end", tile=se3.tile,
                detail=f"({body.requester},{body.sid})",
                requester=body.requester, sid=body.sid,
            )
            inner_end(body)

        end.__qualname__ = getattr(inner_end, "__qualname__", "SEL3._end")
        se3._end = end
        if self.provenance is None:
            return
        inner_configure = se3._configure

        def configure(spec, children, requester, start_idx, credits,
                      epoch=0, migrated=False, plan=None):
            verdict = inner_configure(spec, children, requester, start_idx,
                                      credits, epoch, migrated, plan)
            inputs = {
                "start_idx": start_idx, "credits": credits,
                "epoch": epoch, "migrated": migrated,
                "pattern": type(spec.pattern).__name__,
                "length": spec.length,
                "resident_streams": len(se3.streams),
            }
            if plan is not None:
                inputs["plan"] = plan.describe()
            tel.publish(
                "decision", tile=se3.tile,
                detail=f"config_{verdict} ({requester},{spec.sid})",
                verdict=f"config_{verdict}", sid=spec.sid,
                requester=requester,
                reason="migrate" if migrated else "float_config",
                inputs=inputs,
            )
            return verdict

        configure.__qualname__ = getattr(
            inner_configure, "__qualname__", "SEL3._configure"
        )
        se3._configure = configure

    def watch_chip(self, chip) -> None:
        """Bind chip-level context (stats tree, mesh geometry) — what
        the interval sampler needs to derive IPC / utilization."""
        if self.sampler is not None:
            self.sampler.bind(
                chip.stats,
                links=chip.mesh.num_links,
                cores=chip.mesh.num_tiles,
            )

    # ------------------------------------------------------------------
    # run completion
    # ------------------------------------------------------------------
    def finalize(self, stats=None) -> None:
        """Flush pillar state at the end of a run; publish summary
        counters into ``stats`` (all deterministic — no wall clock)."""
        if self.sampler is not None:
            self.sampler.flush(self.sim.now)
        if self.attribution is not None:
            self.attribution.check()
        if stats is not None:
            for name, value in self.summary().items():
                stats.set(f"telemetry.{name}", value)

    def summary(self) -> Dict[str, float]:
        """Deterministic run-level counters (recorded alongside the
        run cache in :class:`~repro.harness.runner.RunRecord`)."""
        out: Dict[str, float] = {"bus_events": self.bus_events}
        if self.spans is not None:
            out["spans_opened"] = self.spans.opened
            out["spans_closed"] = self.spans.closed
            out["spans_dropped"] = self.spans.dropped
            out["noc_events"] = len(self.spans.noc_events)
            out["noc_dropped"] = self.spans.noc_dropped
            # Aggregate critical-path profile: per (span kind, edge)
            # the total cycles spent on that edge plus how many spans
            # it dominated. The ">" separator follows link.<s>><d>.
            for (kind, edge), slot in sorted(
                self.spans.critical_profile().items()
            ):
                out[f"crit.{kind}.{edge}"] = slot[1]
                if slot[2]:
                    out[f"critdom.{kind}.{edge}"] = slot[2]
        if self.sampler is not None:
            out["interval_samples"] = len(self.sampler.samples)
        if self.profiler is not None:
            out["profiled_events"] = self.profiler.events
        if self.provenance is not None:
            out.update(self.provenance.summary())
        if self.attribution is not None:
            out.update(self.attribution.summary())
        return out
