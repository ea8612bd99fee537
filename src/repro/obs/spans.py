"""Request-lifecycle spans built from telemetry bus events.

Three span families (DESIGN.md §8):

- **mem** — one span per demand/prefetch line fetch, keyed
  ``(tile, line)``: opens at the L1 miss that allocates the MSHR,
  accumulates hops as the request crosses L2 → L3 bank → DRAM →
  data return, closes at the L1 fill.
- **elem** — one span per floated-stream element, keyed
  ``(requester, sid, element)``: opens when the SE_L3 issues the GetU
  at the L3 bank, closes when the DataU lands in the requester's
  SE_L2 buffer. For a confluence multicast the span is attributed to
  the group leader (the ``requester`` stamped on the GetU).
- **stream** — one span per floated-stream *incarnation*, keyed
  ``(tile, sid)`` plus an incarnation ordinal: opens at the SE_core
  float decision, accumulates a hop per bank-to-bank migration and
  per confluence join, closes at sink (core side) or EndStream
  retirement (L3 side), whichever the bus sees first.

Spans record simulated cycles only — they are deterministic and cheap
(no wall clock, no system calls). The collector enforces a global
span cap; opens beyond the cap are counted in ``dropped`` rather than
silently ignored. NoC events are kept in a separate bounded list used
by the exporter for Chrome-trace flow arrows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

Key = Tuple[Any, ...]


@dataclass
class Hop:
    """One timestamped waypoint inside a span."""

    name: str
    cycle: int
    tile: int
    detail: str = ""


@dataclass
class Span:
    """One request lifecycle: open cycle, ordered hops, close cycle."""

    kind: str  # "mem" | "elem" | "stream"
    key: Key
    tile: int  # owning track: the tile that initiated the request
    start: int
    hops: List[Hop] = field(default_factory=list)
    end: Optional[int] = None
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def closed(self) -> bool:
        return self.end is not None

    def duration(self) -> int:
        """Closed duration, or span-so-far for still-open spans."""
        last = self.end
        if last is None:
            last = self.hops[-1].cycle if self.hops else self.start
        return max(1, last - self.start)

    def edges(self) -> List[Tuple[str, int]]:
        """Consecutive waypoint-pair latencies: ``open`` → first hop,
        hop → hop, last hop → ``close``. Edge names join the endpoint
        names with ``>`` (the ``link.<s>><d>`` convention)."""
        pts: List[Tuple[str, int]] = [("open", self.start)]
        for h in self.hops:
            pts.append((h.name, h.cycle))
        if self.end is not None:
            pts.append(("close", self.end))
        return [
            (f"{a}>{b}", bc - ac if bc > ac else 0)
            for (a, ac), (b, bc) in zip(pts, pts[1:])
        ]


class SpanCollector:
    """Subscribes to the bus and assembles spans; exporter input."""

    def __init__(self, telemetry, config) -> None:
        self.max_spans = config.max_spans
        self.max_noc_events = config.max_noc_events
        self.spans: List[Span] = []
        self._open: Dict[Key, Span] = {}
        # line address -> open mem-span keys, for hops (L3/DRAM) that
        # only know the address, not the requesting tile.
        self._by_line: Dict[int, List[Key]] = {}
        # (tile, sid) -> incarnation ordinal (sids can re-float).
        self._incarnation: Dict[Tuple[int, Any], int] = {}
        self.opened = 0
        self.closed = 0
        self.dropped = 0
        self.noc_events: List[Dict[str, Any]] = []
        self.noc_dropped = 0
        if telemetry is not None:
            for kind in ("l1_miss", "l1_fill", "l2_miss", "l2_data",
                         "l3_demand", "dram", "getu", "datau",
                         "float", "migrate", "confluence", "sink", "end",
                         "noc"):
                telemetry.subscribe(kind, getattr(self, f"_on_{kind}"))

    # ------------------------------------------------------------------
    # span plumbing (also the public API for synthetic/golden tests)
    # ------------------------------------------------------------------
    def open(self, kind: str, key: Key, tile: int, start: int,
             **meta: Any) -> Optional[Span]:
        if key in self._open:
            return self._open[key]
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return None
        span = Span(kind=kind, key=key, tile=tile, start=start, meta=meta)
        self._open[key] = span
        self.spans.append(span)
        self.opened += 1
        return span

    def hop(self, key: Key, name: str, cycle: int, tile: int,
            detail: str = "") -> None:
        span = self._open.get(key)
        if span is not None:
            span.hops.append(Hop(name=name, cycle=cycle, tile=tile,
                                 detail=detail))

    def close(self, key: Key, cycle: int) -> None:
        span = self._open.pop(key, None)
        if span is not None:
            span.end = cycle
            self.closed += 1

    # ------------------------------------------------------------------
    # mem spans
    # ------------------------------------------------------------------
    def _on_l1_miss(self, ev) -> None:
        if not ev.data.get("fresh", True):
            return  # merged into an in-flight MSHR: same span
        key = ("mem", ev.tile, ev.data["addr"])
        span = self.open(
            "mem", key, ev.tile, ev.cycle,
            addr=ev.data["addr"], write=ev.data.get("write", False),
            prefetch=ev.data.get("prefetch", False),
        )
        if span is not None:
            self._by_line.setdefault(ev.data["addr"], []).append(key)

    def _on_l2_miss(self, ev) -> None:
        self.hop(("mem", ev.tile, ev.data["addr"]), "l2_miss",
                 ev.cycle, ev.tile, detail=ev.data.get("via", ""))

    def _on_l3_demand(self, ev) -> None:
        requester = ev.data.get("requester")
        op = ev.data.get("op", "")
        outcome = ev.data.get("outcome", "")
        self.hop(("mem", requester, ev.data["addr"]), "l3", ev.cycle,
                 ev.tile, detail=f"{op}:{outcome}" if outcome else op)

    def _on_dram(self, ev) -> None:
        # DRAM messages carry the home bank as requester, so attribute
        # the hop to every open mem span for the line.
        detail = ev.data.get("op", "")
        done = ev.data.get("done")
        if done is not None:
            detail = f"{detail} done@{done}"
        for key in self._by_line.get(ev.data["addr"], ()):  # usually 1
            self.hop(key, "dram", ev.cycle, ev.tile, detail=detail)

    def _on_l2_data(self, ev) -> None:
        self.hop(("mem", ev.tile, ev.data["addr"]), "l2_data",
                 ev.cycle, ev.tile)

    def _on_l1_fill(self, ev) -> None:
        key = ("mem", ev.tile, ev.data["addr"])
        self.close(key, ev.cycle)
        keys = self._by_line.get(ev.data["addr"])
        if keys is not None:
            try:
                keys.remove(key)
            except ValueError:
                pass
            if not keys:
                del self._by_line[ev.data["addr"]]

    # ------------------------------------------------------------------
    # elem spans
    # ------------------------------------------------------------------
    @staticmethod
    def _elem_keys(requester, sid, element) -> List[Key]:
        # Coalesced sublines arrive as an (start, end) range covering
        # several elements — the GetU and DataU both carry the range,
        # so a single span keyed on the range start is enough.
        first = element[0] if isinstance(element, tuple) else element
        return [("elem", requester, sid, first)]

    def _on_getu(self, ev) -> None:
        requester = ev.data.get("requester")
        sid = ev.data.get("sid")
        for key in self._elem_keys(requester, sid, ev.data.get("element")):
            span = self.open(
                "elem", key, requester, ev.cycle,
                sid=sid, element=key[3], bank=ev.tile,
                category=ev.data.get("category", ""),
            )
            if span is not None:
                span.hops.append(Hop("getu", ev.cycle, ev.tile))

    def _on_datau(self, ev) -> None:
        for key in self._elem_keys(ev.tile, ev.data.get("sid"),
                                   ev.data.get("element")):
            self.hop(key, "datau", ev.cycle, ev.tile)
            self.close(key, ev.cycle)

    # ------------------------------------------------------------------
    # stream lifecycle spans
    # ------------------------------------------------------------------
    def _stream_key(self, tile, sid) -> Key:
        n = self._incarnation.get((tile, sid), 0)
        return ("stream", tile, sid, n)

    def _on_float(self, ev) -> None:
        sid = ev.data.get("sid")
        key = self._stream_key(ev.tile, sid)
        span = self.open(
            "stream", key, ev.tile, ev.cycle,
            sid=sid, float_elem=ev.data.get("elem"),
        )
        if span is not None:
            span.hops.append(Hop("float", ev.cycle, ev.tile, ev.detail))

    def _on_migrate(self, ev) -> None:
        key = self._stream_key(ev.data.get("requester"), ev.data.get("sid"))
        self.hop(key, "migrate", ev.cycle, ev.tile,
                 detail=f"-> bank {ev.data.get('to_bank')}")

    def _on_confluence(self, ev) -> None:
        key = self._stream_key(ev.data.get("requester"), ev.data.get("sid"))
        self.hop(key, "confluence", ev.cycle, ev.tile,
                 detail=f"group of {ev.data.get('size')}")

    def _close_stream(self, tile, sid, name: str, ev) -> None:
        key = self._stream_key(tile, sid)
        span = self._open.get(key)
        if span is None:
            return  # already closed by the other side (sink vs end)
        span.hops.append(Hop(name, ev.cycle, ev.tile))
        self.close(key, ev.cycle)
        self._incarnation[(tile, sid)] = key[3] + 1

    def _on_sink(self, ev) -> None:
        self._close_stream(ev.tile, ev.data.get("sid"), "sink", ev)

    def _on_end(self, ev) -> None:
        self._close_stream(ev.data.get("requester"), ev.data.get("sid"),
                           "end", ev)

    # ------------------------------------------------------------------
    # NoC events (flow arrows)
    # ------------------------------------------------------------------
    def _on_noc(self, ev) -> None:
        if len(self.noc_events) >= self.max_noc_events:
            self.noc_dropped += 1
            return
        self.noc_events.append({
            "src": ev.tile, "dst": ev.data.get("dst"),
            "port": ev.data.get("port"), "kind": ev.data.get("cls"),
            "pid": ev.data.get("pid"), "depart": ev.cycle,
            "arrive": ev.data.get("arrive", ev.cycle),
        })

    # ------------------------------------------------------------------
    def by_kind(self, kind: str) -> List[Span]:
        return [s for s in self.spans if s.kind == kind]

    def critical_profile(self) -> Dict[Tuple[str, str], List[int]]:
        """Aggregate critical-path profile across all spans.

        Maps ``(span kind, edge name)`` to ``[traversals, total
        cycles, dominated]`` where *dominated* counts the spans whose
        single longest edge this was — the per-run bottleneck census
        the attribution report ranks.
        """
        profile: Dict[Tuple[str, str], List[int]] = {}
        for span in self.spans:
            best: Optional[Tuple[str, int]] = None
            for edge, lat in span.edges():
                slot = profile.setdefault((span.kind, edge), [0, 0, 0])
                slot[0] += 1
                slot[1] += lat
                if best is None or lat > best[1]:
                    best = (edge, lat)
            if best is not None:
                profile[(span.kind, best[0])][2] += 1
        return profile
