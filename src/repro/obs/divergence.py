"""S5 divergence localization: from "hash mismatch" to the exact
first divergent ``(cycle, event, handler)``.

The sanitizer's S5 determinism trace (PR 4) reduces an entire run to
one CRC32 over every ``(cycle, handler-qualname)`` pair the kernel
dispatches; PR 6 turned it into a CI gate. A bare mismatch is the
least actionable failure in the repo — this module makes it
localizable with a two-pass replay (DESIGN.md §11):

1. **Checkpoint pass**: run both variants (commit N vs N-1, policy
   on/off) with a :class:`TraceRecorder` attached.
   The recorder folds each dispatch into the prefix hash through the
   sanitizer's own :func:`~repro.sim.sanitizer.s5_crc`, so its hash
   *is* the S5 hash, and snapshots it every ``checkpoint_every``
   events.
2. **Window pass**: a prefix-hash mismatch is monotone (once the
   streams diverge the hashes stay different), so binary-search the
   checkpoint arrays for the first disagreeing checkpoint, then
   replay both runs capturing the ``(index, cycle, handler)`` tuples
   of just that window and zip-compare for the first differing event.

The result names the exact event where the two schedules first part
ways — which handler ran, at which cycle, at which dispatch index —
instead of two giant opaque hashes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.sanitizer import handler_name, s5_crc

# Window capture guard: the second pass captures at most this many
# events (only relevant when two runs share every checkpoint but one
# has a much longer tail).
MAX_WINDOW_EVENTS = 1_000_000

DEFAULT_CHECKPOINT_EVERY = 1024


class TraceRecorder:
    """Step observer recording the S5 event stream.

    Attach to a fresh :class:`~repro.sim.kernel.Simulator` *before*
    running it. It registers on the kernel's step-observer list next
    to the sanitizer's S5 observer and hashes the same
    ``(cycle, qualname)`` pairs through the same function.
    """

    def __init__(
        self,
        sim,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        window: Optional[Tuple[int, float]] = None,
    ) -> None:
        if checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive")
        self.sim = sim
        self.checkpoint_every = checkpoint_every
        self.window = window
        self.crc = 0
        self.events = 0
        self.checkpoints: List[int] = []
        self.window_events: List[Tuple[int, int, str]] = []
        self.window_dropped = 0
        sim.add_step_observer(self._observe_step)

    def _observe_step(self, when: int, fn: Callable[..., Any]) -> None:
        name = handler_name(fn)
        self.crc = s5_crc(self.crc, when, name)
        index = self.events
        self.events = index + 1
        if self.events % self.checkpoint_every == 0:
            self.checkpoints.append(self.crc)
        window = self.window
        if window is not None and window[0] <= index < window[1]:
            if len(self.window_events) < MAX_WINDOW_EVENTS:
                self.window_events.append((index, when, name))
            else:
                self.window_dropped += 1


# A run variant: builds a fresh simulation, calls the supplied attach
# callback on its Simulator before running, runs to completion, and
# returns whatever attach returned (the TraceRecorder).
RunVariant = Callable[[Callable[[Any], TraceRecorder]], TraceRecorder]


@dataclass
class Divergence:
    """Where two event streams first part ways."""

    index: int  # dispatch index of the first divergent event
    a: Optional[Tuple[int, str]]  # (cycle, handler) in run A, None if
    b: Optional[Tuple[int, str]]  # the run ended before the index
    events_a: int
    events_b: int
    crc_a: int
    crc_b: int
    checkpoint_every: int

    @staticmethod
    def _leg(leg: Optional[Tuple[int, str]]) -> str:
        if leg is None:
            return "<run ended>"
        return f"cycle {leg[0]}, handler {leg[1]}"

    def describe(self) -> str:
        return (
            f"first divergent event at dispatch index {self.index}: "
            f"A ran {self._leg(self.a)}; B ran {self._leg(self.b)} "
            f"(A: {self.events_a} events, crc {self.crc_a:#010x}; "
            f"B: {self.events_b} events, crc {self.crc_b:#010x})"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "a": list(self.a) if self.a is not None else None,
            "b": list(self.b) if self.b is not None else None,
            "events_a": self.events_a, "events_b": self.events_b,
            "crc_a": self.crc_a, "crc_b": self.crc_b,
            "checkpoint_every": self.checkpoint_every,
        }


def _first_mismatch(a: List[int], b: List[int]) -> int:
    """Binary search for the first index where the checkpoint arrays
    disagree (valid because a prefix-hash mismatch is monotone);
    returns ``min(len(a), len(b))`` when every shared entry agrees."""
    lo, hi = 0, min(len(a), len(b))
    while lo < hi:
        mid = (lo + hi) // 2
        if a[mid] != b[mid]:
            hi = mid
        else:
            lo = mid + 1
    return lo


def localize(
    run_a: RunVariant,
    run_b: RunVariant,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
) -> Optional[Divergence]:
    """Two-pass divergence localization between two run variants.

    Each variant is a callable taking an ``attach`` callback: it must
    build a fresh simulation, call ``attach(sim)`` before running,
    run to completion, and return the recorder ``attach`` produced.
    Returns ``None`` when the streams are identical.
    """
    rec_a = run_a(lambda sim: TraceRecorder(sim, checkpoint_every))
    rec_b = run_b(lambda sim: TraceRecorder(sim, checkpoint_every))
    if rec_a.crc == rec_b.crc and rec_a.events == rec_b.events:
        return None
    first = _first_mismatch(rec_a.checkpoints, rec_b.checkpoints)
    start = first * checkpoint_every
    if first < min(len(rec_a.checkpoints), len(rec_b.checkpoints)):
        end: float = start + checkpoint_every
    else:
        # Every shared checkpoint agrees: the divergence is in the
        # tail past the last common checkpoint.
        end = float("inf")
    window = (start, end)
    win_a = run_a(lambda sim: TraceRecorder(sim, checkpoint_every, window))
    win_b = run_b(lambda sim: TraceRecorder(sim, checkpoint_every, window))

    def done(rec: TraceRecorder) -> Divergence:
        return Divergence(
            index=0, a=None, b=None,
            events_a=win_a.events, events_b=win_b.events,
            crc_a=win_a.crc, crc_b=win_b.crc,
            checkpoint_every=checkpoint_every,
        )

    for ev_a, ev_b in zip(win_a.window_events, win_b.window_events):
        if ev_a != ev_b:
            result = done(win_a)
            result.index = ev_a[0]
            result.a = (ev_a[1], ev_a[2])
            result.b = (ev_b[1], ev_b[2])
            return result
    # One stream is a strict prefix of the other inside the window:
    # the first event past the shorter run is the divergence.
    short, long_, a_short = (
        (win_a, win_b, True)
        if len(win_a.window_events) < len(win_b.window_events)
        else (win_b, win_a, False)
    )
    if len(short.window_events) < len(long_.window_events):
        extra = long_.window_events[len(short.window_events)]
        result = done(win_a)
        result.index = extra[0]
        leg = (extra[1], extra[2])
        result.a, result.b = (None, leg) if a_short else (leg, None)
        return result
    # Window capture saw no difference (hash collision or a divergence
    # past MAX_WINDOW_EVENTS): report the window boundary.
    result = done(win_a)
    result.index = start
    return result


# ----------------------------------------------------------------------
# figure-point variants
# ----------------------------------------------------------------------
def figure_point_variant(
    workload: str,
    config: str,
    core: str = "ooo8",
    cols: int = 4,
    rows: int = 4,
    scale: int = 16,
    link_bits: int = 256,
    l3_interleave: Optional[int] = None,
    seed: int = 0,
) -> RunVariant:
    """A :data:`RunVariant` that runs one figure point (mirrors
    ``benchmarks/bench_kernel.py``'s direct Chip construction — no
    caches, no harness)."""

    def run(attach: Callable[[Any], TraceRecorder]) -> TraceRecorder:
        from repro.system.chip import Chip
        from repro.system.configs import make_config
        from repro.workloads.base import build_programs

        system = make_config(
            config, core=core, cols=cols, rows=rows, scale=scale,
            link_bits=link_bits, l3_interleave=l3_interleave,
        )
        chip = Chip(system)
        recorder = attach(chip.sim)
        programs = build_programs(
            workload, chip.num_cores, scale=scale, seed=seed,
        )
        chip.run(programs)
        return recorder

    return run
