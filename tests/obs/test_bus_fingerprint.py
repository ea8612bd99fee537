"""Bus fingerprints: the exact event stream the components publish.

One handler subscribes to every kind in ``KINDS`` with every pillar
on and folds each event — in publish order — into a CRC over
``kind, cycle, tile, detail, repr(sorted(data.items()))``. The pins
below fail on any probe that moves, changes its payload, fires on a
different exit path or disappears, so the probe sites can be
refactored freely while the bus stays byte-identical.

Packet ids come from a process-wide counter that every ``Packet``
construction advances, throwaway ones included, so a ``noc`` event's
``pid`` is folded as its first-appearance rank: the CRC pins which
events name the same packet, not how many ids were drawn elsewhere.

The three points cover the stream protocol (hotspot/sf: float, sink,
follow, no_float and config decisions), confluence plus migration
(conv3d/sf) and the demand path under the Bingo prefetcher
(mv/bingo: no stream engine at all).
"""

import zlib

import pytest

from repro.obs.telemetry import ENV_TELEMETRY, KINDS

# (workload, config) -> (bus CRC, telemetry.bus_events)
PINS = {
    ("hotspot", "sf"): (0xD8EBF0F8, 16963),
    ("conv3d", "sf"): (0xC2978BB1, 10169),
    ("mv", "bingo"): (0x65713ECE, 6576),
}


def _run(monkeypatch, workload, config, pillars, on_event):
    """Run ``workload`` on a 2x2 ``config`` chip with telemetry
    ``pillars`` on, handing every bus event to ``on_event``."""
    from repro.system import Chip, make_config
    from repro.workloads import build_programs

    monkeypatch.setenv(ENV_TELEMETRY, pillars)
    chip = Chip(make_config(config, core="ooo4", cols=2, rows=2, scale=64))
    monkeypatch.delenv(ENV_TELEMETRY)
    tel = chip.sim.telemetry
    for kind in KINDS:
        tel.subscribe(kind, on_event)
    result = chip.run(build_programs(workload, chip.num_cores, scale=64))
    return tel, result


def _fingerprint(monkeypatch, workload, config):
    crc = [0]
    ranks = {}

    def fold(ev):
        data = ev.data
        if "pid" in data:
            data = dict(data, pid=ranks.setdefault(data["pid"], len(ranks)))
        line = "%s|%d|%d|%s|%r" % (
            ev.kind, ev.cycle, ev.tile, ev.detail, sorted(data.items()))
        crc[0] = zlib.crc32(line.encode(), crc[0])

    tel, result = _run(monkeypatch, workload, config, "all", fold)
    return crc[0], tel.bus_events, result


@pytest.mark.parametrize("workload,config", sorted(PINS))
def test_bus_fingerprint_is_pinned(monkeypatch, workload, config):
    crc, events, _result = _fingerprint(monkeypatch, workload, config)
    assert (crc, events) == PINS[(workload, config)]


def test_confluence_point_exercises_confluence_and_migration(monkeypatch):
    _crc, _events, result = _fingerprint(monkeypatch, "conv3d", "sf")
    assert result.stats.get("se_l3.confluences") > 0
    assert result.stats.get("se_l3.migrations_out") > 0


def test_pillars_leave_packet_ids_alone(monkeypatch):
    """Observers draw no packet ids: a confluence run numbers its
    packets the same with every pillar on as with spans alone."""
    def pid_offsets(pillars):
        pids = []
        _run(monkeypatch, "conv3d", "sf", pillars,
             lambda ev: pids.append(ev.data["pid"]) if ev.kind == "noc" else None)
        return [pid - pids[0] for pid in pids]

    assert pid_offsets("all") == pid_offsets("spans")
