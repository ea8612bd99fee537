"""Decision-provenance pillar tests: ledger mechanics, real-run
verdict recording with input snapshots, export artifacts, and the
zero-cost-off contract."""

import json

import pytest

from repro.obs.export import (
    export_point_artifacts,
    provenance_instant_events,
    write_provenance,
)
from repro.obs.provenance import ProvenanceLedger, ProvenanceRecord
from repro.obs.telemetry import ENV_TELEMETRY, Telemetry, TelemetryConfig
from repro.sim import Simulator


def _telemetry(max_decisions=100_000):
    sim = Simulator()
    return Telemetry(sim, TelemetryConfig(
        provenance=True, max_decisions=max_decisions))


# ----------------------------------------------------------------------
# ledger mechanics
# ----------------------------------------------------------------------
def test_ledger_collects_decision_events():
    tel = _telemetry()
    ledger = tel.provenance
    assert isinstance(ledger, ProvenanceLedger)
    tel.publish("decision", tile=2, verdict="float", sid=7,
                reason="history", inputs={"miss_ratio": 0.9})
    tel.publish("decision", tile=0, verdict="sink", sid=7,
                reason="cache_hits")
    assert len(ledger.records) == 2
    rec = ledger.records[0]
    assert rec.verdict == "float" and rec.sid == 7 and rec.tile == 2
    assert rec.reason == "history"
    assert rec.inputs == {"miss_ratio": 0.9}
    assert ledger.verdict_counts() == {"float": 1, "sink": 1}
    assert [r.verdict for r in ledger.by_verdict("sink")] == ["sink"]


def test_ledger_bounded_with_drop_counter():
    tel = _telemetry(max_decisions=3)
    for i in range(5):
        tel.publish("decision", tile=0, verdict="float", sid=i)
    ledger = tel.provenance
    assert len(ledger.records) == 3
    assert ledger.dropped == 2
    assert ledger.summary()["decisions_dropped"] == 2


def test_ledger_migrate_and_confluence_enrichment():
    tel = _telemetry()
    tel.publish("migrate", tile=1, sid=3, elem=40, to_bank=2, epoch=1,
                credits=5)
    tel.publish("confluence", tile=2, sid=9, size=4)
    ledger = tel.provenance
    migrate, confluence = ledger.records
    assert migrate.verdict == "migrate"
    assert migrate.inputs == {"elem": 40, "to_bank": 2, "epoch": 1,
                              "credits": 5}
    assert confluence.verdict == "confluence"
    assert confluence.inputs == {"group_size": 4}


def test_tile_activity_and_link_accounting():
    tel = _telemetry()
    tel.publish("l3_demand", tile=1, addr=0x100)
    tel.publish("l3_demand", tile=1, addr=0x140)
    tel.publish("dram", tile=0, addr=0x100)
    ledger = tel.provenance
    ledger.record_links([(0, 1), (1, 3)], 4)
    ledger.record_links([(0, 1)], 2)
    summary = ledger.summary()
    assert summary["tile.1.l3_demand"] == 2
    assert summary["tile.0.dram"] == 1
    assert summary["link.0>1.flits"] == 6
    assert summary["link.1>3.flits"] == 4


def test_record_round_trip():
    rec = ProvenanceRecord(cycle=10, tile=3, verdict="float", sid=1,
                           requester=2, reason="history",
                           inputs={"epoch": 0})
    assert ProvenanceRecord.from_dict(rec.to_dict()) == rec


# ----------------------------------------------------------------------
# enablement / zero-cost-off
# ----------------------------------------------------------------------
@pytest.mark.no_sanitize
def test_provenance_off_means_no_ledger(monkeypatch):
    monkeypatch.setenv(ENV_TELEMETRY, "spans,interval")
    sim = Simulator()
    assert sim.telemetry is not None
    assert sim.telemetry.provenance is None


@pytest.mark.no_sanitize
def test_all_enables_provenance(monkeypatch):
    monkeypatch.setenv(ENV_TELEMETRY, "all")
    sim = Simulator()
    assert sim.telemetry.provenance is not None


# ----------------------------------------------------------------------
# real-run verdicts with input snapshots
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sf_telemetry_record():
    import os

    from repro.harness.runner import clear_cache, run_params, simulate

    os.environ[ENV_TELEMETRY] = "provenance"
    try:
        record = simulate(run_params(workload="mv", config="sf",
                                     cols=2, rows=2, scale=8))
    finally:
        os.environ.pop(ENV_TELEMETRY, None)
        clear_cache()
    return record


def test_real_run_records_decisions(sf_telemetry_record):
    tel = sf_telemetry_record.telemetry
    assert tel["decisions"] > 0
    assert tel["decisions.float"] > 0
    assert tel["decisions.migrate"] > 0
    assert tel["decisions.config_installed"] > 0
    # Stream-floating runs float/sink based on history: both verdicts
    # and their tile/link activity must be present.
    assert any(k.startswith("tile.") for k in tel)
    assert any(k.startswith("link.") for k in tel)
    # Counters also ride the stats tree as telemetry.* (RunRecord).
    assert sf_telemetry_record.stats.get("telemetry.decisions") == \
        tel["decisions"]


def test_float_decisions_snapshot_policy_inputs():
    """A float verdict must carry the evidence the policy saw: the
    Table-II history row, pattern class and position."""
    import os

    from repro.system.chip import Chip
    from repro.system.configs import make_config
    from repro.workloads.base import build_programs

    os.environ[ENV_TELEMETRY] = "provenance"
    try:
        system = make_config("sf", core="ooo8", cols=2, rows=2, scale=8,
                             link_bits=256, l3_interleave=None)
        chip = Chip(system)
        programs = build_programs("mv", chip.num_cores, scale=8, seed=0)
        chip.run(programs)
        ledger = chip.sim.telemetry.provenance
    finally:
        os.environ.pop(ENV_TELEMETRY, None)
    floats = ledger.by_verdict("float")
    assert floats
    for rec in floats:
        for field in ("requests", "reuses", "misses", "miss_ratio",
                      "pattern", "length", "next_issue"):
            assert field in rec.inputs, \
                f"float decision missing {field!r}"
        assert 0.0 <= rec.inputs["miss_ratio"] <= 1.0
    # Both float paths leave distinct evidence: configure-time floats
    # (footprint exceeds L2) fire before any requests; history floats
    # carry the Table-II row that crossed the miss-ratio threshold.
    history = [r for r in floats if r.reason == "history"]
    footprint = [r for r in floats if r.reason == "footprint"]
    assert history and footprint
    assert all(r.inputs["requests"] > 0 for r in history)

    # A history float shows the streaming signature over the stream's
    # lifetime OR its current window (windowed requalification: one
    # early warm prefix no longer disqualifies forever).
    def qualifying_ratio(rec):
        lifetime = rec.inputs["miss_ratio"]
        w_requests = rec.inputs.get("w_requests", 0)
        windowed = (
            rec.inputs.get("w_misses", 0) / w_requests if w_requests else 0.0
        )
        return max(lifetime, windowed)

    assert all(qualifying_ratio(r) > 0.5 for r in history)
    assert all(r.inputs["footprint"] is not None for r in footprint)
    sinks = ledger.by_verdict("sink")
    assert sinks and all(r.reason for r in sinks)


def test_revocation_reaches_the_ledger():
    """The smart policy's revocation must land as a ``revoke`` verdict
    carrying the counters that triggered it (the PR acceptance case:
    the tiled stencil's cache-resident re-sweeps)."""
    import os

    from repro.system.chip import Chip
    from repro.system.configs import make_config
    from repro.workloads.base import build_programs

    os.environ[ENV_TELEMETRY] = "provenance"
    try:
        system = make_config("sf_smart", core="ooo8", cols=2, rows=2,
                             scale=16)
        chip = Chip(system)
        programs = build_programs("stencil_tiled", chip.num_cores,
                                  scale=16, seed=0)
        chip.run(programs)
        ledger = chip.sim.telemetry.provenance
    finally:
        os.environ.pop(ENV_TELEMETRY, None)
    revokes = ledger.by_verdict("revoke")
    assert revokes
    for rec in revokes:
        assert rec.reason.startswith("revoke"), rec.reason
        # The snapshot carries the windowed evidence behind the call.
        for field in ("requests", "w_requests", "w_reuses",
                      "consecutive_hits", "policy"):
            assert field in rec.inputs, f"revoke missing {field!r}"
        assert rec.inputs["policy"] == "smart"
    # A revoked float shows up in the summary counters too.
    counts = ledger.verdict_counts()
    assert counts["revoke"] == len(revokes)
    assert counts.get("float", 0) >= len(revokes)


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------
def _tiny_ledger():
    tel = _telemetry()
    tel.publish("decision", tile=1, verdict="float", sid=4,
                reason="history", inputs={"epoch": 0})
    tel.publish("decision", tile=0, verdict="sink", sid=4,
                reason="alias_store")
    return tel


def test_provenance_jsonl_writer(tmp_path):
    tel = _tiny_ledger()
    path = write_provenance(str(tmp_path / "p.jsonl"),
                            tel.provenance.to_rows("pt"))
    rows = [json.loads(line) for line in open(path)]
    assert [r["verdict"] for r in rows] == ["float", "sink"]
    assert all(r["point"] == "pt" for r in rows)


def test_instant_events_land_on_streams_track():
    tel = _tiny_ledger()
    events = provenance_instant_events(tel.provenance, pid=3, point="pt")
    assert all(e["ph"] == "i" and e["cat"] == "decision" for e in events)
    # streams track is index 2 of 4 per tile.
    assert events[0]["tid"] == 1 * 4 + 2
    assert events[1]["tid"] == 0 * 4 + 2
    assert events[0]["args"]["verdict"] == "float"
    assert events[0]["args"]["reason"] == "history"


def test_point_artifacts_include_provenance(tmp_path):
    tel = _tiny_ledger()
    written = export_point_artifacts(tel, str(tmp_path), "pt")
    assert str(tmp_path / "pt.provenance.jsonl") in written
    rows = [json.loads(line)
            for line in open(tmp_path / "pt.provenance.jsonl")]
    assert len(rows) == 2
