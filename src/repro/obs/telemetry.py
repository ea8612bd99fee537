"""Unified telemetry layer: the event bus and its pillars.

``Telemetry`` is the observability counterpart of
:class:`~repro.sim.sanitizer.Sanitizer` and follows the same
attachment contract: when enabled (``REPRO_TELEMETRY`` environment
variable, the harness's ``--trace-out`` / ``--interval-stats`` /
``--profile`` flags, or an explicit ``Telemetry(sim, config)`` call)
it hangs off the shared :class:`~repro.sim.kernel.Simulator`, and
each component keeps ``self._tel = sim.telemetry`` from construction
and publishes its own events at fixed probe sites::

    if self._tel is not None:
        self._tel.publish("l1_fill", tile=self.tile, ...)

When disabled a probe site costs one ``None`` test and nothing else:
no method is wrapped, and telemetry adds nothing to the network's or
the kernel's observer lists.

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
the components' probe sites ``publish`` :class:`BusEvent` records
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
    """The per-simulator telemetry hub (bus + pillars)."""

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
    # observer registration (called from component constructors)
    # ------------------------------------------------------------------
    def watch_network(self, net) -> None:
        """Join the network's delivery-observer list: a ``noc`` event
        per injection carries the injection cycle (now) and the arrival
        cycle, exactly the pair a Chrome-trace flow arrow needs. The
        provenance pillar charges each injection's flits to the links
        it reserves (NoC heatmap), and the profiler times every
        endpoint handler under its own qualname."""
        ledger = self.provenance
        publish = self.publish

        def inject(packet, when: int, links, flits: int) -> None:
            if ledger is not None:
                ledger.record_links(links, flits)
            publish(
                "noc", tile=packet.src,
                detail=f"{packet.kind} -> {packet.dst}:{packet.dst_port}",
                dst=packet.dst, port=packet.dst_port, cls=packet.kind,
                pid=packet.pid, arrive=when,
            )

        profiler = self.profiler
        if profiler is None:
            net.add_delivery_observer(inject)
        else:
            net.add_delivery_observer(
                inject, profiler.before_handler, profiler.after_handler)

    def watch_core(self, core) -> None:
        """Install the cycle accountant's commit-front hooks. A no-op
        unless the attribution pillar is on — every other pillar keeps
        the core entirely unhooked."""
        if self.attribution is not None:
            self.attribution.watch_core(core)

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
