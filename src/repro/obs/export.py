"""Telemetry artifact writers: Chrome trace JSON, interval series,
profiler reports.

The trace exporter emits Chrome trace-event format (the JSON object
form: ``{"traceEvents": [...]}``) openable in Perfetto or
``chrome://tracing``. Mapping (DESIGN.md §8):

- one *process* (pid) per simulation point, named with the point slug;
- four *threads* (tracks) per tile: ``tile T mem`` (demand/prefetch
  line fetches), ``tile T stream-data`` (floated element spans),
  ``tile T streams`` (float→migrate→sink lifecycle spans) and
  ``tile T noc`` (packet departures/arrivals);
- spans are ``ph: "X"`` complete events with ``ts``/``dur`` in
  simulated cycles and their hop list in ``args.hops`` as
  ``[name, cycle, tile, detail]`` rows;
- NoC hops are ``ph: "s"``/``"f"`` flow arrows anchored on dur-1
  slices at the departure and arrival tracks, ``id``-ed by packet.

Everything emitted is simulated-time data — export is deterministic
for a deterministic run.
"""

from __future__ import annotations

import csv
import json
import os
import sys
from typing import Any, Dict, List, Optional

from repro.obs.interval import IntervalSampler
from repro.obs.spans import Span, SpanCollector

_TRACKS = ("mem", "stream-data", "streams", "noc")
_TRACK_OF_KIND = {"mem": 0, "elem": 1, "stream": 2}
_PH_ORDER = {"M": 0, "X": 1, "s": 2, "f": 3}


def point_slug(params: Dict[str, Any]) -> str:
    """Deterministic human-readable label for one simulation point."""
    parts = [
        str(params.get("workload", "?")),
        str(params.get("config", "?")),
        str(params.get("core", "?")),
        f"{params.get('cols', '?')}x{params.get('rows', '?')}",
        f"s{params.get('scale', '?')}",
    ]
    seed = params.get("seed", 0)
    if seed:
        parts.append(f"seed{seed}")
    obs = params.get("obs")
    if obs:
        parts.append("obs-" + str(obs).replace(",", "+"))
    return "-".join(parts)


def _span_name(span: Span) -> str:
    if span.kind == "mem":
        tag = "pf" if span.meta.get("prefetch") else (
            "st" if span.meta.get("write") else "ld")
        return f"{tag} {span.meta.get('addr', 0):#x}"
    if span.kind == "elem":
        return f"sid {span.meta.get('sid')} elem {span.meta.get('element')}"
    if span.kind == "stream":
        return f"stream sid {span.meta.get('sid')} #{span.key[3]}"
    return span.kind


def chrome_trace_events(
    spans: SpanCollector, pid: int = 1, point: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Flatten one point's spans + NoC events into trace events."""
    events: List[Dict[str, Any]] = []
    tids_used: Dict[int, str] = {}

    def tid_for(tile: int, track: int) -> int:
        tid = int(tile) * len(_TRACKS) + track
        tids_used.setdefault(tid, f"tile {tile} {_TRACKS[track]}")
        return tid

    for span in spans.spans:
        args: Dict[str, Any] = {
            "key": "/".join(str(k) for k in span.key),
            "hops": [[h.name, h.cycle, h.tile, h.detail]
                     for h in span.hops],
        }
        for name, value in sorted(span.meta.items()):
            args[name] = str(value) if isinstance(value, tuple) else value
        if not span.closed:
            args["open"] = True
        events.append({
            "ph": "X", "pid": pid,
            "tid": tid_for(span.tile, _TRACK_OF_KIND[span.kind]),
            "ts": span.start, "dur": span.duration(),
            "name": _span_name(span), "cat": span.kind, "args": args,
        })
    for noc in spans.noc_events:
        flow_id = f"{pid}.{noc['pid']}"
        src_tid = tid_for(noc["src"], 3)
        dst_tid = tid_for(noc["dst"], 3)
        name = f"{noc['kind']} -> {noc['dst']}:{noc['port']}"
        events.append({
            "ph": "X", "pid": pid, "tid": src_tid, "ts": noc["depart"],
            "dur": 1, "name": name, "cat": "noc",
        })
        events.append({
            "ph": "s", "pid": pid, "tid": src_tid, "ts": noc["depart"],
            "id": flow_id, "name": "noc", "cat": "noc",
        })
        events.append({
            "ph": "X", "pid": pid, "tid": dst_tid, "ts": noc["arrive"],
            "dur": 1, "name": f"{noc['kind']} from {noc['src']}",
            "cat": "noc",
        })
        events.append({
            "ph": "f", "bp": "e", "pid": pid, "tid": dst_tid,
            "ts": noc["arrive"], "id": flow_id, "name": "noc",
            "cat": "noc",
        })
    # Track naming metadata (Perfetto reads process_name/thread_name).
    events.append({
        "ph": "M", "pid": pid, "ts": 0, "name": "process_name",
        "args": {"name": point or f"point {pid}"},
    })
    for tid in sorted(tids_used):
        events.append({
            "ph": "M", "pid": pid, "tid": tid, "ts": 0,
            "name": "thread_name", "args": {"name": tids_used[tid]},
        })
        events.append({
            "ph": "M", "pid": pid, "tid": tid, "ts": 0,
            "name": "thread_sort_index", "args": {"sort_index": tid},
        })
    # Stable, deterministic order: metadata first, then by timestamp.
    events.sort(key=lambda e: (
        0 if e["ph"] == "M" else 1,
        e["ts"], e["pid"], e.get("tid", -1),
        _PH_ORDER.get(e["ph"], 9), e.get("name", ""),
    ))
    return events


def write_chrome_trace(path: str, events: List[Dict[str, Any]]) -> str:
    payload = {"traceEvents": events, "displayTimeUnit": "ns"}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def write_intervals(path: str, samples: List[Dict[str, Any]]) -> str:
    """JSONL by default; CSV when ``path`` ends in ``.csv``."""
    columns = ["point"] + IntervalSampler.columns()
    if path.endswith(".csv"):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=columns,
                                    extrasaction="ignore")
            writer.writeheader()
            for sample in samples:
                writer.writerow(sample)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            for sample in samples:
                fh.write(json.dumps(sample, sort_keys=True) + "\n")
    return path


def write_profile(path: str, points: List[Dict[str, Any]]) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"points": points}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def provenance_instant_events(
    ledger, pid: int = 1, point: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Decision-ledger records as Chrome-trace ``ph: "i"`` instant
    events on the per-tile *streams* track (same tid scheme as
    :func:`chrome_trace_events`), so verdicts line up visually with
    the stream lifecycle spans they decided.

    Kept separate from :func:`chrome_trace_events` so span-only
    exports (and their goldens) are unaffected by the provenance
    pillar.
    """
    events: List[Dict[str, Any]] = []
    streams_track = _TRACKS.index("streams")
    for rec in ledger.records:
        args: Dict[str, Any] = {"verdict": rec.verdict}
        if rec.sid is not None:
            args["sid"] = rec.sid
        if rec.requester is not None:
            args["requester"] = rec.requester
        if rec.reason:
            args["reason"] = rec.reason
        for name, value in sorted(rec.inputs.items()):
            args[name] = str(value) if isinstance(value, tuple) else value
        if point is not None:
            args["point"] = point
        events.append({
            "ph": "i", "s": "t", "pid": pid,
            "tid": int(rec.tile) * len(_TRACKS) + streams_track,
            "ts": rec.cycle, "name": rec.verdict, "cat": "decision",
            "args": args,
        })
    return events


def write_provenance(path: str, rows: List[Dict[str, Any]]) -> str:
    """Queryable JSONL: one decision record per line, ledger order."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    return path


class TelemetrySink:
    """Aggregates per-point telemetry for the harness CLI.

    The runner calls :meth:`collect` after each fresh simulation (see
    ``repro.harness.runner.configure_telemetry``); the CLI calls
    :meth:`write` once the figure completes. Cache hits skip
    simulation entirely and therefore contribute no telemetry — the
    CLI warns when that leaves a requested artifact empty.
    """

    def __init__(
        self,
        trace_out: Optional[str] = None,
        interval_out: Optional[str] = None,
        profile_out: Optional[str] = None,
        provenance_out: Optional[str] = None,
        top_n: int = 20,
    ) -> None:
        self.trace_out = trace_out
        self.interval_out = interval_out
        self.profile_out = profile_out
        self.provenance_out = provenance_out
        self.top_n = top_n
        self.points = 0
        self._trace_events: List[Dict[str, Any]] = []
        self._samples: List[Dict[str, Any]] = []
        self._profiles: List[Dict[str, Any]] = []
        self._provenance_rows: List[Dict[str, Any]] = []
        # Nonzero drop counters seen per point: bounded buffers
        # truncating silently would corrupt attribution totals, so the
        # sink surfaces every truncation loudly.
        self.drop_warnings: List[str] = []

    def _check_drops(self, telemetry, slug: str) -> None:
        dropped = {
            name: value
            for name, value in telemetry.summary().items()
            if "dropped" in name and value
        }
        if dropped:
            detail = ", ".join(
                f"{name}={int(value)}" for name, value in sorted(dropped.items())
            )
            message = (
                f"[obs] WARNING {slug}: telemetry buffers overflowed "
                f"and dropped data ({detail}); raise the caps or "
                f"shrink the point — derived totals are incomplete"
            )
            self.drop_warnings.append(message)
            print(message, file=sys.stderr)

    def collect(self, telemetry, params: Dict[str, Any]) -> None:
        self.points += 1
        slug = point_slug(params)
        self._check_drops(telemetry, slug)
        if telemetry.spans is not None and self.trace_out:
            self._trace_events.extend(chrome_trace_events(
                telemetry.spans, pid=self.points, point=slug))
        if telemetry.sampler is not None and self.interval_out:
            for sample in telemetry.sampler.samples:
                self._samples.append({"point": slug, **sample})
        if telemetry.profiler is not None:
            # Kept without --profile-out too: profile_report() prints it.
            self._profiles.append(
                {"point": slug, **telemetry.profiler.payload(self.top_n)})
        ledger = getattr(telemetry, "provenance", None)
        if ledger is not None:
            if self.provenance_out:
                self._provenance_rows.extend(ledger.to_rows(slug))
            if self.trace_out:
                self._trace_events.extend(provenance_instant_events(
                    ledger, pid=self.points, point=slug))

    def ingest_dir(self, artifact_dir: str) -> int:
        """Merge per-point artifacts written by worker processes (via
        ``REPRO_TELEMETRY_DIR``) into this sink, remapping each
        point's pid (workers always export with pid 1) so merged
        traces keep one process per point. Returns the number of
        points ingested. Files are read in sorted order, so the merge
        is deterministic regardless of worker scheduling."""
        slugs = set()
        for fname in sorted(os.listdir(artifact_dir)):
            path = os.path.join(artifact_dir, fname)
            for suffix in (".trace.json", ".intervals.jsonl",
                           ".profile.json", ".provenance.jsonl"):
                if fname.endswith(suffix):
                    slugs.add(fname[: -len(suffix)])
            if fname.endswith(".trace.json"):
                with open(path, "r", encoding="utf-8") as fh:
                    events = json.load(fh)["traceEvents"]
                self.points += 1
                for event in events:
                    event["pid"] = self.points
                    if "id" in event:
                        # Flow-arrow ids are "<pid>.<packet>"; keep
                        # them unique across merged points.
                        suffix = str(event["id"]).split(".", 1)[-1]
                        event["id"] = f"{self.points}.{suffix}"
                self._trace_events.extend(events)
            elif fname.endswith(".intervals.jsonl"):
                with open(path, "r", encoding="utf-8") as fh:
                    for line in fh:
                        if line.strip():
                            self._samples.append(json.loads(line))
            elif fname.endswith(".profile.json"):
                with open(path, "r", encoding="utf-8") as fh:
                    self._profiles.extend(json.load(fh)["points"])
            elif fname.endswith(".provenance.jsonl"):
                with open(path, "r", encoding="utf-8") as fh:
                    for line in fh:
                        if line.strip():
                            self._provenance_rows.append(json.loads(line))
        return len(slugs)

    def profile_report(self) -> str:
        lines = []
        for entry in self._profiles:
            lines.append(f"== {entry['point']} ==")
            lines.append(
                f"{'callback':<40} {'events':>10} {'seconds':>10} "
                f"{'us/event':>10}"
            )
            for row in entry["top"]:
                lines.append(
                    f"{row['callback']:<40} {row['events']:>10} "
                    f"{row['seconds']:>10.3f} {row['us_per_event']:>10.3f}"
                )
        return "\n".join(lines)

    def write(self) -> List[str]:
        written: List[str] = []
        if self.trace_out:
            written.append(
                write_chrome_trace(self.trace_out, self._trace_events))
        if self.interval_out:
            written.append(write_intervals(self.interval_out, self._samples))
        if self.profile_out:
            written.append(write_profile(self.profile_out, self._profiles))
        if self.provenance_out:
            written.append(write_provenance(
                self.provenance_out, self._provenance_rows))
        return written


def export_point_artifacts(telemetry, out_dir: str, slug: str) -> List[str]:
    """Standalone per-point export for ``REPRO_TELEMETRY_DIR`` use
    (no CLI sink, e.g. library callers or worker processes)."""
    os.makedirs(out_dir, exist_ok=True)
    written: List[str] = []
    ledger = getattr(telemetry, "provenance", None)
    if telemetry.spans is not None:
        events = chrome_trace_events(telemetry.spans, pid=1, point=slug)
        if ledger is not None:
            events.extend(provenance_instant_events(ledger, pid=1,
                                                    point=slug))
        written.append(write_chrome_trace(
            os.path.join(out_dir, f"{slug}.trace.json"), events))
    if telemetry.sampler is not None:
        written.append(write_intervals(
            os.path.join(out_dir, f"{slug}.intervals.jsonl"),
            [{"point": slug, **s} for s in telemetry.sampler.samples]))
    if telemetry.profiler is not None:
        written.append(write_profile(
            os.path.join(out_dir, f"{slug}.profile.json"),
            [{"point": slug, **telemetry.profiler.payload()}]))
    if ledger is not None:
        written.append(write_provenance(
            os.path.join(out_dir, f"{slug}.provenance.jsonl"),
            ledger.to_rows(slug)))
    return written
