"""Telemetry layer tests: enablement matrix, event bus, hooks.

Mirrors ``tests/sim/test_sanitizer.py``'s enablement coverage: the
layer must be a strict no-op with zero hooks when off, and attach the
requested pillars (and only those) when on.
"""

import pytest

from repro.obs.telemetry import (
    ENV_INTERVAL,
    ENV_TELEMETRY,
    Telemetry,
    TelemetryConfig,
    config_from_env,
    enabled_by_env,
)
from repro.sim import Simulator
from tests.mem.conftest import MiniHierarchy

BASE = 0x20_0000


# ----------------------------------------------------------------------
# enablement matrix
# ----------------------------------------------------------------------
@pytest.mark.no_sanitize
def test_disabled_without_env():
    assert not enabled_by_env()
    sim = Simulator()
    assert sim.telemetry is None
    # Zero-cost off: no step observer (the sanitizer is also off)...
    assert not sim._step_observers
    # ...no delivery observer, and no component wraps its entry points.
    hier = MiniHierarchy()
    assert not hier.net._observers
    assert hier.l1s[0]._tel is None
    assert "_miss" not in hier.l1s[0].__dict__


@pytest.mark.no_sanitize
@pytest.mark.parametrize("value", ["", "0", "off", "False", "no"])
def test_off_values(monkeypatch, value):
    monkeypatch.setenv(ENV_TELEMETRY, value)
    assert not enabled_by_env()
    assert config_from_env() is None


@pytest.mark.parametrize("value", ["1", "all", "on", "true"])
def test_all_values_enable_every_pillar(monkeypatch, value):
    monkeypatch.setenv(ENV_TELEMETRY, value)
    config = config_from_env()
    assert config.spans
    assert config.interval > 0
    assert config.profile


def test_pillar_list_parses(monkeypatch):
    monkeypatch.setenv(ENV_TELEMETRY, "spans,profile")
    config = config_from_env()
    assert config.spans and config.profile
    assert config.interval == 0


def test_interval_period_from_env(monkeypatch):
    monkeypatch.setenv(ENV_TELEMETRY, "interval")
    monkeypatch.setenv(ENV_INTERVAL, "2500")
    config = config_from_env()
    assert config.interval == 2500
    assert not config.spans and not config.profile


def test_unknown_pillar_rejected(monkeypatch):
    monkeypatch.setenv(ENV_TELEMETRY, "spans,bogus")
    with pytest.raises(ValueError, match="bogus"):
        config_from_env()


def test_env_attach_installs_hooks(monkeypatch):
    monkeypatch.setenv(ENV_TELEMETRY, "spans")
    hier = MiniHierarchy()
    tel = hier.sim.telemetry
    assert tel is not None
    assert tel.spans is not None
    assert tel.sampler is None and tel.profiler is None
    # spans alone needs no step observer; the sanitizer's is fine.
    results = []
    hier.read(0, BASE, results)
    hier.run()
    assert results
    assert tel.bus_events > 0
    assert tel.spans.opened > 0
    assert tel.spans.closed == tel.spans.opened


def test_step_hook_only_for_interval_or_profile(monkeypatch):
    monkeypatch.setenv(ENV_TELEMETRY, "profile")
    sim = Simulator()
    profiler = sim.telemetry.profiler
    assert profiler is not None
    assert (profiler.before_step, profiler.after_step) in sim._step_observers


# ----------------------------------------------------------------------
# event bus
# ----------------------------------------------------------------------
@pytest.mark.no_sanitize
def test_publish_reaches_subscribers_in_order():
    sim = Simulator()
    tel = Telemetry(sim, TelemetryConfig())
    seen = []
    tel.subscribe("float", lambda ev: seen.append(("a", ev)))
    tel.subscribe("float", lambda ev: seen.append(("b", ev)))
    tel.publish("float", tile=3, detail="sid 1", sid=1)
    assert [tag for tag, _ in seen] == ["a", "b"]
    ev = seen[0][1]
    assert ev.kind == "float" and ev.tile == 3 and ev.data["sid"] == 1
    assert tel.bus_events == 1


@pytest.mark.no_sanitize
def test_subscribe_unknown_kind_rejected():
    tel = Telemetry(Simulator(), TelemetryConfig())
    with pytest.raises(ValueError, match="unknown telemetry kind"):
        tel.subscribe("nope", lambda ev: None)


@pytest.mark.no_sanitize
def test_streams_alive_gauge_tracks_float_sink_end():
    tel = Telemetry(Simulator(), TelemetryConfig())
    tel.publish("float", tile=0, sid=1)
    tel.publish("float", tile=1, sid=1)
    assert tel.streams_alive == 2
    tel.publish("sink", tile=0, sid=1)
    assert tel.streams_alive == 1
    # end after sink for the same stream is idempotent...
    tel.publish("end", tile=9, requester=0, sid=1)
    assert tel.streams_alive == 1
    # ...and end alone retires the other one.
    tel.publish("end", tile=9, requester=1, sid=1)
    assert tel.streams_alive == 0


# ----------------------------------------------------------------------
# components publish their own probes: nothing else is patched in
# ----------------------------------------------------------------------
# Instance attributes that still shadow a class method once the
# sanitizer and every pillar are attached: the sanitizer's S1/S4
# before/after snapshots and the cycle accountant's commit-front hooks.
# Shrink this list as those move to probes; never grow it.
WRAPPED_ALLOWLIST = {
    "L1Cache._writeback_to_l2",
    "L3Bank._process",
    "SEL2._send_config", "SEL2._free",
    "SEL3._issue_one", "SEL3._end", "SEL3.check_write",
    "SEL3.flush_floating", "SEL3._configure", "SEL3._data_ready",
    "Core.run_phase", "Core._load_done", "Core._check_done",
}


def _components(root, depth=3):
    """Every ``repro`` object reachable from ``root``'s instance
    attributes (and lists of them), ``depth`` levels deep."""
    seen, found = set(), []

    def visit(obj, level):
        if id(obj) in seen or level > depth:
            return
        if isinstance(obj, (list, tuple)):
            for item in obj:
                visit(item, level)
            return
        if not type(obj).__module__.startswith("repro.") \
                or not hasattr(obj, "__dict__"):
            return
        seen.add(id(obj))
        found.append(obj)
        for value in vars(obj).values():
            visit(value, level + 1)

    for value in vars(root).values():
        visit(value, 1)
    return found


def _shadowed_methods(root):
    import inspect

    shadowed = set()
    for obj in _components(root):
        cls = type(obj)
        for name, value in vars(obj).items():
            if callable(value) and inspect.isfunction(
                inspect.getattr_static(cls, name, None)
            ):
                shadowed.add(f"{cls.__name__}.{name}")
    return shadowed


def test_only_allowlisted_methods_are_wrapped(monkeypatch):
    from repro.system import Chip, make_config

    monkeypatch.setenv(ENV_TELEMETRY, "all")
    hier = MiniHierarchy()
    assert hier.sim.sanitizer is not None
    shadowed = _shadowed_methods(hier)
    assert "L1Cache._writeback_to_l2" in shadowed  # the walk sees the L1s
    assert shadowed <= WRAPPED_ALLOWLIST
    chip = Chip(make_config("sf", core="ooo4", cols=2, rows=2, scale=64))
    assert chip.sim.telemetry.attribution is not None
    assert _shadowed_methods(chip) == WRAPPED_ALLOWLIST


def test_telemetry_does_not_change_simulation(monkeypatch):
    results = []
    hier = MiniHierarchy()
    for k in range(8):
        hier.read(k % 4, BASE + k * 64, results)
    hier.run()
    plain = (hier.sim.now, list(results))

    monkeypatch.setenv(ENV_TELEMETRY, "all")
    results2 = []
    hier2 = MiniHierarchy()
    for k in range(8):
        hier2.read(k % 4, BASE + k * 64, results2)
    hier2.run()
    assert (hier2.sim.now, results2) == plain
    assert hier2.sim.telemetry.bus_events > 0


# ----------------------------------------------------------------------
# bus subscriptions on a full chip (stream-protocol lifecycle)
# ----------------------------------------------------------------------
def _hotspot_chip():
    from repro.system import Chip, make_config

    return Chip(make_config("sf", core="ooo4", cols=2, rows=2, scale=32))


def _subscribed_hotspot_run(monkeypatch, kinds):
    """Build an sf chip with telemetry on (REPRO_TELEMETRY during
    construction, as the harness does), subscribe to ``kinds`` and
    run hotspot; returns the run result and the received events."""
    from repro.workloads import build_programs

    monkeypatch.setenv(ENV_TELEMETRY, "provenance")
    chip = _hotspot_chip()
    monkeypatch.delenv(ENV_TELEMETRY)
    events = []
    for kind in kinds:
        chip.sim.telemetry.subscribe(kind, events.append)
    result = chip.run(build_programs("hotspot", chip.num_cores, scale=32))
    return result, events


def test_bus_subscription_filters_by_kind(monkeypatch):
    _result, events = _subscribed_hotspot_run(monkeypatch, ("float", "migrate"))
    assert {ev.kind for ev in events} == {"float", "migrate"}


def test_bus_events_are_time_ordered(monkeypatch):
    _result, events = _subscribed_hotspot_run(
        monkeypatch, ("float", "sink", "migrate", "end"))
    cycles = [ev.cycle for ev in events]
    assert cycles and cycles == sorted(cycles)


def test_bus_subscription_does_not_change_results(monkeypatch):
    from repro.obs.telemetry import KINDS
    from repro.workloads import build_programs

    observed, events = _subscribed_hotspot_run(monkeypatch, KINDS)
    assert events
    chip = _hotspot_chip()
    assert chip.sim.telemetry is None
    plain = chip.run(build_programs("hotspot", chip.num_cores, scale=32))
    assert observed.cycles == plain.cycles

    # Telemetry counters and the S5 event-stream hash (telemetry vetoes
    # fusion) aside, every architectural stat is identical.
    def architectural(stats):
        return {name: value for name, value in stats.as_dict().items()
                if not name.startswith(("telemetry.", "sanitizer."))}

    assert architectural(observed.stats) == architectural(plain.stats)
