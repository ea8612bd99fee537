"""Decision provenance ledger: every float/no-float/sink/revoke/
migrate/confluence/config verdict with its complete input snapshot.

The telemetry layer (PR 5) records *what* happened; this pillar
records *why* (DESIGN.md §11). Each policy decision made anywhere in
the three-level stream engine — SE_core float/sink, SE_L2 follower
registration, SE_L3 configure/migrate/confluence — is published on
the bus as a ``decision`` event (or enriched ``migrate``/
``confluence`` events) carrying the exact state the policy saw:
per-stream history (Table II), pattern class, bank locality, epoch,
credits. The ledger collects them into an ordered, bounded record
list exportable as queryable JSONL and as Chrome-trace instant
events on the PR-5 stream tracks.

The ledger also keeps the per-tile and per-link activity counters the
differential observatory's heatmaps need (L3-bank demand/GetU/DRAM
traffic per tile; flits per directed mesh link), surfaced through
``Telemetry.summary()`` so they ride the ``telemetry.*`` stats into
every :class:`~repro.harness.runner.RunRecord`.

Zero-cost-when-off contract: nothing here is imported or subscribed
unless the ``provenance`` pillar is enabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple


@dataclass
class ProvenanceRecord:
    """One decision with its evidence."""

    cycle: int
    tile: int
    verdict: str  # float | no_float | sink | revoke | follow |
    #               migrate | confluence | config_installed |
    #               config_stale | config_rejected | config_replaced
    # ("revoke": the smart policy undid a float it judged bad mid-run;
    #  the reason names the trigger, e.g. revoke_reuse_burst.)
    sid: Optional[int] = None
    requester: Optional[int] = None
    reason: str = ""
    inputs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "cycle": self.cycle, "tile": self.tile,
            "verdict": self.verdict, "sid": self.sid,
            "reason": self.reason, "inputs": dict(self.inputs),
        }
        if self.requester is not None:
            out["requester"] = self.requester
        return out

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ProvenanceRecord":
        return cls(
            cycle=payload["cycle"], tile=payload["tile"],
            verdict=payload["verdict"], sid=payload.get("sid"),
            requester=payload.get("requester"),
            reason=payload.get("reason", ""),
            inputs=dict(payload.get("inputs", {})),
        )


class ProvenanceLedger:
    """Bus subscriber assembling the decision ledger + heatmap data."""

    # Bus kinds whose per-tile counts feed the L3-bank activity heatmap.
    TILE_KINDS = ("l3_demand", "getu", "dram")

    def __init__(self, telemetry, config) -> None:
        self.max_records = config.max_decisions
        self.records: List[ProvenanceRecord] = []
        self.dropped = 0
        # tile -> {kind: count} (L3-bank occupancy heatmap input).
        self.tile_activity: Dict[int, Dict[str, int]] = {}
        # (src, dst) directed mesh link -> flits (NoC-link heatmap).
        self.link_flits: Dict[Tuple[int, int], int] = {}
        if telemetry is not None:
            telemetry.subscribe("decision", self._on_decision)
            telemetry.subscribe("migrate", self._on_migrate)
            telemetry.subscribe("confluence", self._on_confluence)
            for kind in self.TILE_KINDS:
                telemetry.subscribe(kind, self._on_tile_activity)

    @staticmethod
    def policy_snapshot(se, stream) -> Dict[str, Any]:
        """The float/sink policy's complete input state for one SE_core
        stream (Table II history + pattern class + bank locality +
        progress) — what a ``decision`` record stores as its evidence.
        The SE_core's decision probes call this while the pillar is on."""
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

    # ------------------------------------------------------------------
    # bus handlers
    # ------------------------------------------------------------------
    def _append(self, record: ProvenanceRecord) -> None:
        if len(self.records) >= self.max_records:
            self.dropped += 1
            return
        self.records.append(record)

    def _on_decision(self, ev) -> None:
        self._append(ProvenanceRecord(
            cycle=ev.cycle, tile=ev.tile,
            verdict=ev.data.get("verdict", "?"),
            sid=ev.data.get("sid"),
            requester=ev.data.get("requester"),
            reason=ev.data.get("reason", ""),
            inputs=dict(ev.data.get("inputs", {})),
        ))

    def _on_migrate(self, ev) -> None:
        self._append(ProvenanceRecord(
            cycle=ev.cycle, tile=ev.tile, verdict="migrate",
            sid=ev.data.get("sid"), requester=ev.data.get("requester"),
            reason="next_elem_remote",
            inputs={
                "elem": ev.data.get("elem"),
                "to_bank": ev.data.get("to_bank"),
                "epoch": ev.data.get("epoch"),
                "credits": ev.data.get("credits"),
            },
        ))

    def _on_confluence(self, ev) -> None:
        self._append(ProvenanceRecord(
            cycle=ev.cycle, tile=ev.tile, verdict="confluence",
            sid=ev.data.get("sid"), requester=ev.data.get("requester"),
            reason="same_shape_same_block",
            inputs={"group_size": ev.data.get("size")},
        ))

    def _on_tile_activity(self, ev) -> None:
        per_tile = self.tile_activity.setdefault(ev.tile, {})
        per_tile[ev.kind] = per_tile.get(ev.kind, 0) + 1

    # ------------------------------------------------------------------
    # link accounting (from telemetry's network delivery observer)
    # ------------------------------------------------------------------
    def record_links(self, route: Iterable[Tuple[int, int]],
                     flits: int) -> None:
        for link in route:
            self.link_flits[link] = self.link_flits.get(link, 0) + flits

    # ------------------------------------------------------------------
    # queries / export feeds
    # ------------------------------------------------------------------
    def verdict_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for rec in self.records:
            counts[rec.verdict] = counts.get(rec.verdict, 0) + 1
        return counts

    def by_verdict(self, verdict: str) -> List[ProvenanceRecord]:
        return [r for r in self.records if r.verdict == verdict]

    def summary(self) -> Dict[str, float]:
        """Flat deterministic counters for ``Telemetry.summary()``
        (and therefore ``telemetry.*`` stats + RunRecord.telemetry)."""
        out: Dict[str, float] = {
            "decisions": len(self.records),
            "decisions_dropped": self.dropped,
        }
        for verdict, count in sorted(self.verdict_counts().items()):
            out[f"decisions.{verdict}"] = count
        for tile in sorted(self.tile_activity):
            for kind, count in sorted(self.tile_activity[tile].items()):
                out[f"tile.{tile}.{kind}"] = count
        for (src, dst) in sorted(self.link_flits):
            out[f"link.{src}>{dst}.flits"] = self.link_flits[(src, dst)]
        return out

    def to_rows(self, slug: Optional[str] = None) -> List[Dict[str, Any]]:
        """JSONL-ready row per record (insertion = cycle order)."""
        rows = []
        for rec in self.records:
            row = rec.to_dict()
            if slug is not None:
                row["point"] = slug
            rows.append(row)
        return rows
