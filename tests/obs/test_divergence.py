"""Divergence localizer tests: checkpoint bisect, window replay, and
the S5-formula contract with the sanitizer."""

import pytest

from repro.obs.divergence import (
    Divergence,
    TraceRecorder,
    figure_point_variant,
    localize,
)
from repro.sim import Simulator


# ----------------------------------------------------------------------
# scripted event streams on the real kernel
# ----------------------------------------------------------------------
def _handler(name):
    def fn():
        pass

    fn.__qualname__ = name
    return fn


def _scripted_sim(events):
    """A Simulator holding a fixed (cycle, handler) schedule; events
    scheduled in list order keep that order within a cycle (FIFO)."""
    sim = Simulator()
    for when, name in events:
        sim.schedule_at(when, _handler(name))
    return sim


def _variant(events):
    def run(attach):
        sim = _scripted_sim(events)
        recorder = attach(sim)
        sim.run()
        return recorder
    return run


def _schedule(n):
    """n events, non-decreasing cycles, cycling handler names."""
    return [(i // 3, f"Tile.handler_{i % 7}") for i in range(n)]


# ----------------------------------------------------------------------
# recorder
# ----------------------------------------------------------------------
def test_recorder_checkpoints_and_window():
    events = _schedule(1000)
    rec = _variant(events)(lambda sim: TraceRecorder(
        sim, checkpoint_every=256, window=(500, 503)))
    assert rec.events == 1000
    assert len(rec.checkpoints) == 3  # 256, 512, 768
    assert rec.window_events == [
        (i, events[i][0], events[i][1]) for i in (500, 501, 502)
    ]


def test_recorder_rejects_bad_period():
    with pytest.raises(ValueError):
        TraceRecorder(Simulator(), checkpoint_every=0)


# ----------------------------------------------------------------------
# localization
# ----------------------------------------------------------------------
def test_identical_runs_report_no_divergence():
    events = _schedule(2000)
    assert localize(_variant(events), _variant(list(events)),
                    checkpoint_every=128) is None


def test_injected_reorder_localized_exactly():
    """The acceptance case: two same-cycle events swapped deep in the
    schedule must be pinned to the exact first divergent (cycle,
    event, handler) — not just 'hashes differ'."""
    events_a = _schedule(5000)
    events_b = list(events_a)
    # Indices 2500/2501 share cycle 833 but run different handlers:
    # swapping them is a pure scheduling reorder.
    assert events_b[2500][0] == events_b[2501][0]
    assert events_b[2500][1] != events_b[2501][1]
    events_b[2500], events_b[2501] = events_b[2501], events_b[2500]

    divergence = localize(_variant(events_a), _variant(events_b),
                          checkpoint_every=64)
    assert isinstance(divergence, Divergence)
    assert divergence.index == 2500
    assert divergence.a == (events_a[2500][0], events_a[2500][1])
    assert divergence.b == (events_a[2501][0], events_a[2501][1])
    assert divergence.events_a == divergence.events_b == 5000
    assert divergence.crc_a != divergence.crc_b
    text = divergence.describe()
    assert "index 2500" in text
    assert events_a[2500][1] in text and events_a[2501][1] in text


def test_tail_divergence_when_one_run_is_prefix():
    """Run B appends events past A's end: the first extra event is the
    divergence, with A's leg reported as ended."""
    events_a = _schedule(1000)
    events_b = events_a + [(999, "Tile.extra_0"), (999, "Tile.extra_1")]
    divergence = localize(_variant(events_a), _variant(events_b),
                          checkpoint_every=128)
    assert divergence is not None
    assert divergence.index == 1000
    assert divergence.a is None
    assert divergence.b == (999, "Tile.extra_0")
    assert "<run ended>" in divergence.describe()


def test_divergence_in_first_window():
    events_a = _schedule(400)
    events_b = list(events_a)
    events_b[3] = (events_b[3][0], "Tile.rogue")
    divergence = localize(_variant(events_a), _variant(events_b),
                          checkpoint_every=64)
    assert divergence is not None
    assert divergence.index == 3
    assert divergence.b == (events_a[3][0], "Tile.rogue")


def test_to_dict_round_trip_fields():
    events_a = _schedule(300)
    events_b = list(events_a)
    events_b[100] = (events_b[100][0], "Tile.rogue")
    divergence = localize(_variant(events_a), _variant(events_b),
                          checkpoint_every=32)
    payload = divergence.to_dict()
    assert payload["index"] == 100
    assert payload["b"] == [events_a[100][0], "Tile.rogue"]
    assert payload["checkpoint_every"] == 32


# ----------------------------------------------------------------------
# S5 contract: recorder hash == sanitizer hash on a real run
# ----------------------------------------------------------------------
def test_recorder_matches_sanitizer_s5_hash():
    """The recorder must hash the identical stream the sanitizer's S5
    trace hashes — otherwise its checkpoints would localize a
    *different* divergence than the one the CI gate reported."""
    run = figure_point_variant("mv", "sf", cols=2, rows=2, scale=8)
    recorder = run(lambda sim: TraceRecorder(sim, checkpoint_every=4096))
    sanitizer = recorder.sim.sanitizer
    assert sanitizer.trace_events > 0
    assert recorder.events == sanitizer.trace_events
    assert recorder.crc == sanitizer.trace_hash
