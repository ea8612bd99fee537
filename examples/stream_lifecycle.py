#!/usr/bin/env python
"""Watch a floated stream's life: float -> migrate -> ... -> end.

Builds an SF chip with telemetry on, subscribes to its event bus, runs
the mv kernel and prints the first float/sink/migration/end events,
then the per-kind totals. Useful both for understanding the mechanism
and for debugging new workloads: a stream that floats and immediately
sinks, or that migrates every few elements, shows up here at a glance.

Telemetry attaches the way the harness attaches it: ``REPRO_TELEMETRY``
names the pillars while the chip is built, and every component keeps
the bus from construction and publishes its own events to it.

Run:  python examples/stream_lifecycle.py
"""

import os
from collections import Counter

from repro.obs.telemetry import ENV_TELEMETRY
from repro.system import Chip, make_config
from repro.workloads import build_programs

KINDS = ("float", "sink", "migrate", "end")


def main() -> None:
    os.environ[ENV_TELEMETRY] = "provenance"
    try:
        chip = Chip(make_config("sf", core="ooo8", cols=4, rows=4, scale=16))
    finally:
        del os.environ[ENV_TELEMETRY]
    events = []
    for kind in KINDS:
        chip.sim.telemetry.subscribe(kind, events.append)
    programs = build_programs("mv", chip.num_cores, scale=16)
    result = chip.run(programs)

    print("first 20 stream events:")
    for ev in events[:20]:
        print(f"  [{ev.cycle:>9}] {ev.kind:<8} tile {ev.tile:<3} {ev.detail}")
    print("\nevent totals:")
    counts = Counter(ev.kind for ev in events)
    for kind in KINDS:
        print(f"  {kind:<12} {counts[kind]:>8}")
    print(f"\nrun: {result.cycles:,} cycles, "
          f"{result.stats['l3.requests.stream_float']:.0f} SE_L3 requests, "
          f"{result.stats['se_l3.migrations_out']:.0f} migrations")
    print("\nReading it: the matrix stream floats at configuration "
          "(footprint >> L2);\nthe x vector floats from history, then "
          "sinks once its second pass starts\nhitting the private "
          "caches — exactly the paper's float/sink policy (SS IV-D).")


if __name__ == "__main__":
    main()
