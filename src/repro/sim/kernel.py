"""Discrete-event simulation kernel.

Every component in the simulated chip (cores, caches, the NoC, DRAM
controllers, stream engines) shares one :class:`Simulator`. Time is
measured in core clock cycles (the paper's system runs at 2.0 GHz; see
``repro.system.params``). Events are callbacks scheduled at absolute or
relative times and executed in (time, insertion-order) order, so the
simulation is fully deterministic.

The scheduler is a calendar queue (DESIGN.md §10): a ring of ``RING``
per-cycle FIFO buckets covering the window ``[now, now + RING)``, with
a binary heap holding far-future overflow events. Scheduling into the
window and dispatching are both O(1) appends/indexing with no
comparisons; overflow events migrate into the ring exactly when the
window reaches them, before any direct insert for their cycle can
occur, which preserves the global (time, insertion-order) ordering.

Events at the same cycle run in the order they were scheduled (FIFO
tie-break), ``run(until=N)`` leaves ``now == N`` even when the queue
drains early, and fractional schedule times are rejected rather than
silently truncated.

Checkers and profilers observe dispatch through one ordered list of
*step observers* (:meth:`Simulator.add_step_observer`); with none
registered, ``run()`` takes the inline loop and pays nothing for them.
"""

from __future__ import annotations

import heapq
import os
from collections import deque
from typing import Any, Callable, List, Optional, Tuple

from repro.obs import telemetry as _telemetry
from repro.sim import fastpath as _fastpath
from repro.sim import sanitizer as _sanitizer

ENV_KERNEL = "REPRO_KERNEL"

# Called with (cycle, callback) just before a dispatch.
BeforeStep = Callable[[int, Callable[..., Any]], None]
# Called with no arguments right after the dispatched callback returns.
AfterStep = Callable[[], None]


def kernel_from_env() -> str:
    """Validate ``REPRO_KERNEL``: the calendar queue is the only
    kernel, so any other value (including the retired ``heap``) is
    rejected rather than silently ignored."""
    raw = os.environ.get(ENV_KERNEL, "").strip().lower()
    if raw in ("", "calendar"):
        return "calendar"
    raise ValueError(
        f"{ENV_KERNEL}={raw!r} names an unknown kernel; the only kernel "
        f"is 'calendar'"
    )


class Simulator:
    """A deterministic discrete-event simulator (calendar queue).

    Invariants (DESIGN.md §10):

    - every pending ring event sits at a cycle in ``[now, now + RING)``
      in bucket ``when & (RING - 1)``, so a bucket holds events of
      exactly one cycle at a time and plain append order *is* global
      insertion order for that cycle;
    - every overflow-heap event is at a cycle ``>= now + RING``; when
      ``now`` advances, events falling inside the new window migrate
      into their buckets immediately — before any direct insert for
      those cycles is possible — keyed by ``(when, seq)`` so per-cycle
      FIFO order is preserved across the migration;
    - buckets are deques consumed from the left as they execute, so a
      bucket always holds exactly the *pending* events of its cycle;
      ``can_inline()`` is then a free emptiness test on the current
      bucket, which is what gates the handler-layer zero-delay
      fusions (DESIGN.md §12).
    """

    RING = 2048  # bucket count; must be a power of two

    def __init__(self) -> None:
        kernel_from_env()  # refuse a stale REPRO_KERNEL such as "heap"
        self.now: int = 0
        self._seq: int = 0
        self._events_executed: int = 0
        self._events_inlined: int = 0
        # Depth of handler-layer fused loops currently on the stack.
        # While positive, can_inline() reports False: a fused loop
        # holds callbacks in a local list the queue cannot see, so a
        # nested fusion would run ahead of them (DESIGN.md §12).
        self._inline_depth: int = 0
        self._mask = self.RING - 1
        self._buckets: List[deque] = [deque() for _ in range(self.RING)]
        self._ring_count = 0  # pending events across all buckets
        self._overflow: List[Tuple[int, int, Callable[..., Any], tuple]] = []
        self._step_observers: List[
            Tuple[Optional[BeforeStep], Optional[AfterStep]]
        ] = []
        # None unless REPRO_SANITIZE enables invariant checking; when
        # attached, components register themselves at construction.
        self.sanitizer = _sanitizer.maybe_attach(self)
        # Same contract for the telemetry layer (REPRO_TELEMETRY).
        # The sanitizer attaches first, so its step observer runs
        # first and hashes the same event stream either way.
        self.telemetry = _telemetry.maybe_attach(self)
        # Handler fast paths (REPRO_FASTPATH, default on) fuse
        # uncontended event chains into synchronous calls that credit
        # count_inlined_events(). Fusion changes the *event stream*
        # (hence the S5 trace hash) but never cycles or architectural
        # stats (DESIGN.md §12). Telemetry vetoes fusion: its probes
        # publish at the end of the handlers they sit in, so a fused
        # callback chain would invert observer ordering (e.g. a span
        # closing before the hop that produced it). The sanitizer does not —
        # tier-1 runs exercise the fused paths, and the S5 hash change
        # is regenerated deliberately. Message pooling additionally
        # requires no sanitizer, since observers may retain references
        # past a message's handler.
        self.fastpath = _fastpath.enabled() and self.telemetry is None
        self.pooling = self.fastpath and self.sanitizer is None

    # -- scheduling ----------------------------------------------------
    # Scheduling is the single hottest simulator entry point, so the
    # window test and bucket append happen inline in both methods.
    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``delay`` cycles from now.

        ``delay`` must be a non-negative whole number of cycles; a
        zero delay runs later in the current cycle (after all
        previously scheduled events for this cycle).
        """
        if type(delay) is int:
            d = delay
        else:
            d = int(delay)
            if d != delay:
                raise ValueError(
                    f"delay must be a whole number of cycles, got {delay!r}"
                )
        if d < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        if d < self.RING:
            self._buckets[(self.now + d) & self._mask].append((fn, args))
            self._ring_count += 1
        else:
            heapq.heappush(
                self._overflow, (self.now + d, self._seq, fn, args)
            )
            self._seq += 1

    def schedule_at(self, when: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute cycle ``when``.

        ``when`` is coerced *before* the past-check so a fractional
        time can never sneak past the guard and silently truncate onto
        an earlier cycle; non-integral times are rejected outright.
        """
        if type(when) is int:
            w = when
        else:
            w = int(when)
            if w != when:
                raise ValueError(
                    f"schedule time must be a whole cycle, got {when!r}"
                )
        now = self.now
        if w < now:
            raise ValueError(
                f"cannot schedule at cycle {when}, current cycle is {now}"
            )
        if w < now + self.RING:
            self._buckets[w & self._mask].append((fn, args))
            self._ring_count += 1
        else:
            heapq.heappush(self._overflow, (w, self._seq, fn, args))
            self._seq += 1

    def _advance_to(self, when: int) -> None:
        """Move ``now`` forward to ``when`` (no pending event before
        it), migrating overflow events the new window reaches."""
        if when == self.now:
            return
        self.now = when
        overflow = self._overflow
        if overflow and overflow[0][0] < when + self.RING:
            horizon = when + self.RING
            buckets = self._buckets
            mask = self._mask
            pop = heapq.heappop
            while overflow and overflow[0][0] < horizon:
                w, _seq, fn, args = pop(overflow)
                buckets[w & mask].append((fn, args))
                self._ring_count += 1

    def _next_cycle(self) -> Optional[int]:
        """Cycle of the next pending event, or ``None`` if none."""
        buckets = self._buckets
        mask = self._mask
        if buckets[self.now & mask]:
            return self.now
        if self._ring_count:
            c = self.now + 1
            while not buckets[c & mask]:
                c += 1
            return c
        if self._overflow:
            return self._overflow[0][0]
        return None

    # -- observation ---------------------------------------------------
    def add_step_observer(
        self,
        before: Optional[BeforeStep] = None,
        after: Optional[AfterStep] = None,
    ) -> None:
        """Append an observer to the step-observer list.

        Every dispatch calls each registered ``before(when, fn)`` in
        registration order just before running ``fn``, then each
        ``after()`` in the same order once it returns. Observers must
        not schedule events. With the list empty, ``run()`` takes its
        inline loop and observation costs nothing.
        """
        self._step_observers.append((before, after))

    # -- introspection -------------------------------------------------
    @property
    def events_pending(self) -> int:
        """Number of events still in the queue."""
        return self._ring_count + len(self._overflow)

    @property
    def events_executed(self) -> int:
        """Total number of events run so far."""
        return self._events_executed

    @property
    def events_inlined(self) -> int:
        """Logical events that ran fused/batched instead of through a
        kernel dispatch (a subset of ``events_executed``)."""
        return self._events_inlined

    def count_inlined_events(self, n: int) -> None:
        """Account ``n`` callbacks executed inside a batching event
        (e.g. the NoC's per-cycle delivery drain) so ``events_executed``
        keeps counting logical events, not just kernel dispatches."""
        self._events_executed += n
        self._events_inlined += n

    def can_inline(self) -> bool:
        """True when nothing is pending at the current cycle, so a
        handler may run a zero-delay callback synchronously instead of
        scheduling it: with an empty current-cycle queue the scheduled
        callback would execute next anyway, and anything the callback
        itself schedules lands behind it in FIFO order either way
        (DESIGN.md §12). When another event *is* pending this cycle,
        fusing would jump the queue — callers must fall back to
        ``schedule(0, ...)``."""
        return (
            not self._inline_depth
            and not self._buckets[self.now & self._mask]
        )

    # -- execution -----------------------------------------------------
    def step(self) -> bool:
        """Run the single next event, notifying the step observers.
        Returns False if none remain."""
        when = self._next_cycle()
        if when is None:
            return False
        self._dispatch(when)
        return True

    def _dispatch(self, when: int) -> None:
        if when != self.now:
            self._advance_to(when)
        fn, args = self._buckets[when & self._mask].popleft()
        self._ring_count -= 1
        self._events_executed += 1
        observers = self._step_observers
        for before, _after in observers:
            if before is not None:
                before(when, fn)
        fn(*args)
        for _before, after in observers:
            if after is not None:
                after()

    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run events until the queue drains.

        ``until`` bounds simulated time (events at cycles > ``until``
        stay queued, and ``now`` advances to ``until`` when no event at
        or before it remains); ``max_events`` bounds the number of
        events run, which guards against accidental livelock in tests:
        the run stops right after the ``max_events``-th event, leaving
        ``now`` at that event's cycle. Returns the current cycle when
        the run stops.
        """
        if self._step_observers:
            return self._run_observed(until, max_events)
        return self._run_fast(until, max_events)

    def _run_observed(
        self, until: Optional[int], max_events: Optional[int],
    ) -> int:
        """``run()`` one dispatch at a time through the observers;
        same stopping rules as ``_run_fast``."""
        executed = 0
        while True:
            when = self._next_cycle()
            if when is None or (until is not None and when > until):
                break
            self._dispatch(when)
            executed += 1
            if max_events is not None and executed >= max_events:
                return self.now
        if until is not None and self.now < until:
            self._advance_to(until)
        return self.now

    def _run_fast(self, until: Optional[int], max_events: Optional[int]) -> int:
        buckets = self._buckets
        mask = self._mask
        budget = max_events if max_events is not None else None
        while True:
            bucket = buckets[self.now & mask]
            if not bucket:
                if self._ring_count:
                    c = self.now + 1
                    while not buckets[c & mask]:
                        c += 1
                elif self._overflow:
                    c = self._overflow[0][0]
                else:
                    break  # drained
                if until is not None and c > until:
                    break
                self._advance_to(c)
                bucket = buckets[c & mask]
            # Drain the current cycle. Zero-delay events append to this
            # same bucket mid-drain and are picked up by the emptiness
            # test; fused (inlined) callbacks never enter the bucket at
            # all and are accounted via count_inlined_events.
            consumed = 0
            popleft = bucket.popleft
            if budget is None:
                # Unbudgeted drain (the normal full-run case): no
                # per-event budget bookkeeping in the loop.
                try:
                    while bucket:
                        fn, args = popleft()
                        consumed += 1
                        fn(*args)
                finally:
                    self._ring_count -= consumed
                    self._events_executed += consumed
                continue
            try:
                while bucket:
                    fn, args = popleft()
                    consumed += 1
                    fn(*args)
                    budget -= 1
                    if budget <= 0:
                        break
            finally:
                self._ring_count -= consumed
                self._events_executed += consumed
            if budget <= 0:
                return self.now
        if until is not None and self.now < until:
            self._advance_to(until)
        return self.now
