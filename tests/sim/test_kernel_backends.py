"""Scheduler mechanics: the calendar-queue kernel against a reference.

The reference is :class:`HeapOracle` below: one ``heapq`` of
``(time, seq, fn, args)`` whose pop order *is* the kernel's contract
— time order, FIFO within a cycle — by construction. Every mechanics
test runs against both the real :class:`~repro.sim.kernel.Simulator`
(``[calendar]``) and the oracle (``[heap]``), so the oracle is held to
the same regression spec the kernel is: ``run(until=N)`` must advance
``now`` on queue drain, and fractional schedule times must be rejected,
never truncated. The hypothesis test at the bottom then diffs the
kernel against the oracle on random self-rescheduling actor programs.

Tests marked ``no_sanitize`` exercise the kernel's inline ``_run_fast``
loop (the tier-1 default attaches the sanitizer's step observer, which
routes ``run()`` through the observed loop instead).
"""

import heapq

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.kernel import ENV_KERNEL, kernel_from_env

RING = Simulator.RING


class HeapOracle:
    """Reference scheduler with the kernel's observable interface."""

    def __init__(self):
        self.now = 0
        self.events_executed = 0
        self._queue = []
        self._seq = 0

    def schedule(self, delay, fn, *args):
        d = int(delay)
        if d != delay:
            raise ValueError(f"delay must be a whole number of cycles, got {delay!r}")
        if d < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        self._push(self.now + d, fn, args)

    def schedule_at(self, when, fn, *args):
        w = int(when)
        if w != when:
            raise ValueError(f"schedule time must be a whole cycle, got {when!r}")
        if w < self.now:
            raise ValueError(f"cannot schedule at cycle {when}, current cycle is {self.now}")
        self._push(w, fn, args)

    def _push(self, when, fn, args):
        heapq.heappush(self._queue, (when, self._seq, fn, args))
        self._seq += 1

    @property
    def events_pending(self):
        return len(self._queue)

    def count_inlined_events(self, n):
        self.events_executed += n

    def step(self):
        if not self._queue:
            return False
        when, _seq, fn, args = heapq.heappop(self._queue)
        self.now = when
        self.events_executed += 1
        fn(*args)
        return True

    def run(self, until=None, max_events=None):
        executed = 0
        while self._queue and (until is None or self._queue[0][0] <= until):
            self.step()
            executed += 1
            if max_events is not None and executed >= max_events:
                return self.now
        if until is not None and self.now < until:
            self.now = until
        return self.now


@pytest.fixture(params=["calendar", "heap"])
def sim(request):
    return Simulator() if request.param == "calendar" else HeapOracle()


# ----------------------------------------------------------------------
# REPRO_KERNEL can no longer select anything
# ----------------------------------------------------------------------
def test_unknown_kernel_env_rejected(monkeypatch):
    for value in ("fibonacci", "heap"):
        monkeypatch.setenv(ENV_KERNEL, value)
        with pytest.raises(ValueError, match=value):
            kernel_from_env()
        with pytest.raises(ValueError, match=value):
            Simulator()


def test_default_is_calendar(monkeypatch):
    monkeypatch.delenv(ENV_KERNEL, raising=False)
    assert kernel_from_env() == "calendar"
    monkeypatch.setenv(ENV_KERNEL, "calendar")
    assert kernel_from_env() == "calendar"


# ----------------------------------------------------------------------
# regression: run(until=N) must advance now to N when the queue drains
# ----------------------------------------------------------------------
def test_run_until_advances_now_past_drained_queue(sim):
    fired = []
    sim.schedule(3, fired.append, "only")
    assert sim.run(until=10) == 10
    assert fired == ["only"]
    assert sim.now == 10  # historically stuck at 3


def test_run_until_on_empty_queue_advances_now(sim):
    assert sim.run(until=7) == 7
    assert sim.now == 7


@pytest.mark.no_sanitize
def test_run_until_advances_now_fast_path(sim):
    # Same regression against the inline loop (no step observer).
    assert not getattr(sim, "_step_observers", [])
    sim.schedule(2, lambda: None)
    sim.run(until=25)
    assert sim.now == 25
    # Scheduling relative to the advanced time must land correctly.
    fired = []
    sim.schedule(5, fired.append, "next")
    sim.run()
    assert fired == ["next"]
    assert sim.now == 30


# ----------------------------------------------------------------------
# regression: fractional schedule times are rejected, never truncated
# ----------------------------------------------------------------------
def test_schedule_at_fractional_rejected(sim):
    sim.schedule(10, lambda: None)
    sim.run()
    assert sim.now == 10
    with pytest.raises(ValueError, match="whole cycle"):
        sim.schedule_at(10.7, lambda: None)


def test_schedule_at_fractional_below_now_rejected_as_fractional(sim):
    """int(10.4) == 10 would slip past a truncate-after-compare guard;
    the coercion must reject the fraction before the past-check."""
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(ValueError, match="whole cycle"):
        sim.schedule_at(10.4, lambda: None)


def test_schedule_at_integral_float_accepted(sim):
    fired = []
    sim.schedule_at(6.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [6]
    assert sim.now == 6


def test_schedule_fractional_delay_rejected(sim):
    with pytest.raises(ValueError, match="whole number"):
        sim.schedule(0.5, lambda: None)


def test_schedule_integral_float_delay_accepted(sim):
    fired = []
    sim.schedule(4.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [4]


# ----------------------------------------------------------------------
# shared ordering semantics
# ----------------------------------------------------------------------
def test_fifo_within_cycle(sim):
    order = []
    for tag in range(8):
        sim.schedule(5, order.append, tag)
    sim.run()
    assert order == list(range(8))


@pytest.mark.no_sanitize
def test_zero_delay_fifo_fast_path(sim):
    order = []

    def outer():
        order.append("outer")
        sim.schedule(0, order.append, "inner")

    sim.schedule(1, outer)
    sim.schedule(1, order.append, "peer")
    sim.run()
    assert order == ["outer", "peer", "inner"]


def test_events_pending_and_executed(sim):
    sim.schedule(1, lambda: None)
    sim.schedule(5000, lambda: None)  # calendar: overflow heap
    assert sim.events_pending == 2
    sim.run()
    assert sim.events_pending == 0
    assert sim.events_executed == 2


def test_count_inlined_events(sim):
    sim.schedule(1, sim.count_inlined_events, 3)
    sim.run()
    assert sim.events_executed == 4  # one dispatch + three credited


# ----------------------------------------------------------------------
# calendar-specific mechanics
# ----------------------------------------------------------------------
@pytest.fixture
def cal():
    return Simulator()


def test_calendar_bucket_wraparound(cal):
    """Events exactly RING cycles apart share a bucket index; the
    earlier one must run and clear before the later becomes visible."""
    order = []
    cal.schedule_at(10, order.append, "first")
    cal.schedule_at(10 + RING, order.append, "wrapped")  # same bucket
    cal.schedule_at(10 + 2 * RING, order.append, "wrapped-again")
    cal.run()
    assert order == ["first", "wrapped", "wrapped-again"]
    assert cal.now == 10 + 2 * RING


def test_calendar_overflow_migration_preserves_fifo(cal):
    """A far-future event (scheduled first, via the overflow heap)
    must still run before a same-cycle event inserted directly into
    the ring after the window reached that cycle."""
    target = RING * 2 + 5
    order = []
    cal.schedule_at(target, order.append, "overflow-first")
    # Advance the window so `target` migrates into the ring...
    cal.schedule(RING + 10, lambda: None)
    cal.run(until=RING + 10)
    # ...then insert directly at the same cycle.
    cal.schedule_at(target, order.append, "direct-second")
    cal.run()
    assert order == ["overflow-first", "direct-second"]


def test_calendar_far_future_goes_to_overflow(cal):
    cal.schedule(RING + 100, lambda: None)
    assert len(cal._overflow) == 1
    assert cal._ring_count == 0
    cal.run()
    assert cal.events_executed == 1


def test_calendar_dense_reschedule_storm(cal):
    """Self-rescheduling actors across bucket wraparound boundaries:
    event counts and final time must match the closed form."""
    horizon = RING * 3 + 17
    ticks = []

    def tick(period):
        ticks.append(cal.now)
        cal.schedule(period, tick, period)

    for i in range(5):
        cal.schedule(i, tick, 1 + i)
    cal.run(until=horizon)
    assert cal.now == horizon
    assert ticks == sorted(ticks)
    expected = sum(
        len(range(i, horizon + 1, 1 + i)) for i in range(5)
    )
    assert len(ticks) == expected


def test_calendar_step_matches_run_order():
    run_order = []
    sim = Simulator()
    for d, tag in ((3, "a"), (3, "b"), (1, "c"), (5000, "z")):
        sim.schedule(d, run_order.append, tag)
    sim.run()

    step_order = []
    sim2 = Simulator()
    for d, tag in ((3, "a"), (3, "b"), (1, "c"), (5000, "z")):
        sim2.schedule(d, step_order.append, tag)
    while sim2.step():
        pass
    assert step_order == run_order == ["c", "a", "b", "z"]
    assert sim2.now == sim.now == 5000


# ----------------------------------------------------------------------
# step observers
# ----------------------------------------------------------------------
@pytest.mark.no_sanitize
def test_step_observers_bracket_every_dispatch_in_order():
    sim = Simulator()
    log = []

    def handler(tag):
        log.append(("run", sim.now, tag))

    sim.add_step_observer(lambda when, fn: log.append(("a", when, fn.__name__)))
    sim.add_step_observer(
        lambda when, fn: log.append(("b", when, fn.__name__)),
        lambda: log.append(("b-after", sim.now)),
    )
    sim.add_step_observer(after=lambda: log.append(("c-after", sim.now)))
    sim.schedule(2, handler, "x")
    sim.schedule(RING + 1, handler, "y")  # reached via the overflow heap
    assert sim.run() == RING + 1
    assert log == [
        ("a", 2, "handler"), ("b", 2, "handler"), ("run", 2, "x"),
        ("b-after", 2), ("c-after", 2),
        ("a", RING + 1, "handler"), ("b", RING + 1, "handler"),
        ("run", RING + 1, "y"), ("b-after", RING + 1), ("c-after", RING + 1),
    ]
    # step() dispatches through the same observers.
    del log[:]
    sim.schedule(0, handler, "z")
    assert sim.step() is True
    assert [entry[0] for entry in log] == ["a", "b", "run", "b-after", "c-after"]


# ----------------------------------------------------------------------
# differential: calendar kernel vs the oracle on random actor programs
# ----------------------------------------------------------------------
DELAYS = st.integers(min_value=0, max_value=3 * RING)
ACTORS = st.lists(
    st.tuples(
        DELAYS,                                      # first firing
        st.lists(DELAYS, min_size=1, max_size=5),    # reschedule delays
        st.integers(min_value=1, max_value=8),       # firings
        st.integers(min_value=0, max_value=3),       # zero-delay chain
        st.booleans(),                               # schedule_at vs schedule
    ),
    min_size=1, max_size=6,
)
SLICES = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(min_value=0, max_value=4 * RING)),
        st.one_of(st.none(), st.integers(min_value=1, max_value=40)),
    ),
    max_size=5,
)


def _drive(sim, actors, slices):
    """Run one actor program on ``sim`` slice by slice; returns the
    dispatch trace and ``now`` after every slice."""
    trace = []

    def chain(actor, depth):
        trace.append((sim.now, actor, "chain", depth))
        if depth:
            sim.schedule(0, chain, actor, depth - 1)

    def fire(actor, k):
        trace.append((sim.now, actor, "fire", k))
        _first, delays, firings, chain_len, absolute = actors[actor]
        if chain_len:
            sim.schedule(0, chain, actor, chain_len - 1)
        if k + 1 < firings:
            delay = delays[k % len(delays)]
            if absolute:
                sim.schedule_at(sim.now + delay, fire, actor, k + 1)
            else:
                sim.schedule(delay, fire, actor, k + 1)

    for actor, (first, *_rest) in enumerate(actors):
        sim.schedule(first, fire, actor, 0)
    nows = []
    for until_step, budget in slices:
        until = None if until_step is None else sim.now + until_step
        nows.append(sim.run(until=until, max_events=budget))
        assert sim.now == nows[-1]
    nows.append(sim.run())
    return trace, nows, sim.events_executed


@pytest.mark.no_sanitize
@settings(max_examples=150, deadline=None)
@given(actors=ACTORS, slices=SLICES, observed=st.booleans())
# The budget runs out on the last pending event: now stays at that
# event's cycle instead of advancing to until (both run loops).
@example(actors=[(5, [1], 1, 0, False)], slices=[(100, 1)], observed=False)
@example(actors=[(5, [1], 1, 0, False)], slices=[(100, 1)], observed=True)
# Same-cycle events reaching the ring through the overflow heap.
@example(actors=[(RING + 3, [0], 2, 1, True), (RING + 3, [0], 1, 0, False)],
         slices=[(None, None)], observed=True)
def test_calendar_matches_oracle_on_random_programs(actors, slices, observed):
    sim = Simulator()
    seen = []
    if observed:
        # Routes run() through the observed loop instead of _run_fast.
        sim.add_step_observer(lambda when, fn: seen.append(when))
    got = _drive(sim, actors, slices)
    want = _drive(HeapOracle(), actors, slices)
    assert got == want
    if observed:
        assert seen == [entry[0] for entry in got[0]]
