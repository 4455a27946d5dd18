"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import (
    _COMPACT_MIN_CANCELLED,
    Event,
    SimulationError,
    Simulator,
)


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, order.append, "c")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(2.0, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 3.0


def test_simultaneous_events_fire_fifo():
    sim = Simulator()
    order = []
    for name in "abcde":
        sim.schedule(1.0, order.append, name)
    sim.run()
    assert order == list("abcde")


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(5.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [5.5]


def test_schedule_at_absolute_time():
    sim = Simulator()
    seen = []
    sim.schedule_at(2.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.0]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


NAN = float("nan")


@pytest.mark.parametrize("call", [
    lambda sim: sim.post(NAN, lambda: None),
    lambda sim: sim.post_at(NAN, lambda: None),
    lambda sim: sim.schedule(NAN, lambda: None),
    lambda sim: sim.schedule_at(NAN, lambda: None),
    lambda sim: sim.post_backdated(NAN, 0.0, lambda: None),
    lambda sim: sim.schedule_backdated_at(NAN, 0.0, lambda: None),
], ids=["post", "post_at", "schedule", "schedule_at", "post_backdated",
        "schedule_backdated_at"])
def test_a_nan_time_is_refused(call):
    """NaN compares false both ways, so ``delay < 0`` let it through;
    the guards read ``not delay >= 0``."""
    sim = Simulator()
    with pytest.raises(SimulationError):
        call(sim)
    assert sim.pending == 0


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    hits = []
    ev = sim.schedule(1.0, hits.append, "x")
    sim.cancel(ev)
    sim.run()
    assert hits == []
    assert sim.pending == 0


def test_cancel_is_idempotent():
    sim = Simulator()
    ev = sim.schedule(1.0, lambda: None)
    ev.cancel()
    ev.cancel()
    sim.run()


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.schedule(1.0, lambda: order.append("second"))

    sim.schedule(1.0, first)
    sim.run()
    assert order == ["first", "second"]
    assert sim.now == 2.0


def test_run_until_stops_clock_at_bound():
    sim = Simulator()
    hits = []
    sim.schedule(1.0, hits.append, "early")
    sim.schedule(10.0, hits.append, "late")
    sim.run(until=5.0)
    assert hits == ["early"]
    assert sim.now == 5.0
    sim.run()
    assert hits == ["early", "late"]


def test_run_until_with_no_events_advances_clock():
    sim = Simulator()
    sim.run(until=7.0)
    assert sim.now == 7.0


def test_max_events_bounds_execution():
    sim = Simulator()
    count = [0]

    def loop():
        count[0] += 1
        sim.schedule(0.0, loop)

    sim.schedule(0.0, loop)
    sim.run(max_events=100)
    assert count[0] == 100


def test_capped_run_leaves_the_clock_at_the_last_dispatched_event():
    # a run stopped by max_events before ``until`` must not move the
    # clock past what is still queued: the next run fires it on time
    sim = Simulator()
    fired = []
    for t in (1.0, 2.0, 3.0, 4.0):
        sim.post_at(t, lambda: fired.append(sim.now))
    sim.run(until=10.0, max_events=2)
    assert fired == [1.0, 2.0]
    assert sim.now == 2.0 and sim._entry[0] == 2.0
    sim.run(until=10.0)
    assert fired == [1.0, 2.0, 3.0, 4.0]
    assert sim.now == 10.0


def test_step_runs_exactly_one_event():
    sim = Simulator()
    hits = []
    sim.schedule(1.0, hits.append, 1)
    sim.schedule(2.0, hits.append, 2)
    assert sim.step()
    assert hits == [1]
    assert sim.step()
    assert hits == [1, 2]
    assert not sim.step()


def test_peek_skips_cancelled():
    sim = Simulator()
    ev = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    ev.cancel()
    assert sim.peek() == 2.0


def test_pending_counts_live_events_only():
    sim = Simulator()
    ev = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    ev.cancel()
    assert sim.pending == 1


def test_processed_counter():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.processed == 5


def test_event_ordering_dunder():
    a = Event(1.0, 0, lambda: None, ())
    b = Event(1.0, 1, lambda: None, ())
    c = Event(0.5, 2, lambda: None, ())
    assert c < a < b


def test_not_reentrant():
    sim = Simulator()

    def bad():
        sim.run()

    sim.schedule(1.0, bad)
    with pytest.raises(SimulationError):
        sim.run()


# ----------------------------------------------------------------------
# cancelled-event compaction (the resend-timer churn fix)
# ----------------------------------------------------------------------
def test_churn_does_not_grow_the_heap():
    """Cancel/re-arm churn must not leak cancelled entries.

    This is the resend-timer pattern: every BAT sighting cancels the
    pending timeout and schedules a fresh one.  Before lazy compaction
    the heap kept every cancelled entry until its deadline, growing
    linearly with churn.
    """
    sim = Simulator()
    timer = sim.schedule(1000.0, lambda: None)
    for _ in range(10_000):
        timer.cancel()
        timer = sim.schedule(1000.0, lambda: None)
    # one live timer; the dead ones must have been compacted away
    assert sim.pending == 1
    assert len(sim._heap) < 2 * _COMPACT_MIN_CANCELLED


def test_compaction_preserves_fifo_order():
    sim = Simulator()
    order = []
    for name in "abcde":
        sim.schedule(1.0, order.append, name)
    # heavy churn at a later time forces at least one compaction pass
    timer = sim.schedule(5.0, order.append, "tail")
    for _ in range(100):
        timer.cancel()
        timer = sim.schedule(5.0, order.append, "tail")
    sim.run()
    assert order == list("abcde") + ["tail"]


def test_small_cancelled_backlogs_are_left_alone():
    sim = Simulator()
    events = [sim.schedule(1.0, lambda: None) for _ in range(4)]
    for event in events:
        event.cancel()
    # below the compaction floor nothing is rebuilt, but accounting holds
    assert sim.pending == 0
    assert len(sim._heap) == 4
    assert sim.peek() is None


def test_cancelled_counter_survives_mixed_pop_and_compact():
    sim = Simulator()
    fired = []
    for i in range(50):
        sim.schedule(float(i), fired.append, i)
    doomed = [sim.schedule(100.0, fired.append, -1) for _ in range(50)]
    for event in doomed:
        event.cancel()
    sim.run()
    assert fired == list(range(50))
    assert sim.pending == 0
    assert sim._cancelled <= len(sim._heap)
