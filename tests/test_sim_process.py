"""Unit tests for generator processes and futures."""

import pytest

from repro.sim.engine import SimulationError, Simulator
from repro.sim.process import (
    ArrivalStream, Delay, Future, Process, ProcessKilled, all_of,
)


def test_delay_advances_time():
    sim = Simulator()
    trace = []

    def worker():
        trace.append(sim.now)
        yield Delay(1.5)
        trace.append(sim.now)
        yield Delay(0.5)
        trace.append(sim.now)

    Process(sim, worker)
    sim.run()
    assert trace == [0.0, 1.5, 2.0]


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        Delay(-1)


def test_future_blocks_until_resolved():
    sim = Simulator()
    fut = Future(sim)
    trace = []

    def waiter():
        yield fut
        trace.append(("woke", sim.now, fut.value))

    Process(sim, waiter)
    sim.schedule(3.0, fut.resolve, "payload")
    sim.run()
    assert trace == [("woke", 3.0, "payload")]


def test_future_resolved_before_wait_wakes_immediately():
    sim = Simulator()
    fut = Future(sim)
    fut.resolve(42)
    trace = []

    def waiter():
        yield fut
        trace.append(sim.now)

    Process(sim, waiter)
    sim.run()
    assert trace == [0.0]
    assert fut.value == 42


def test_future_double_resolve_rejected():
    sim = Simulator()
    fut = Future(sim)
    fut.resolve(1)
    with pytest.raises(RuntimeError):
        fut.resolve(2)


def test_future_value_before_resolution_rejected():
    sim = Simulator()
    fut = Future(sim)
    with pytest.raises(RuntimeError):
        _ = fut.value


def test_process_result_and_join():
    sim = Simulator()

    def worker():
        yield Delay(1.0)
        return "result"

    p = Process(sim, worker)
    joined = []

    def watcher():
        fut = p.join()
        yield fut
        joined.append((sim.now, fut.value))

    Process(sim, watcher)
    sim.run()
    assert p.finished
    assert p.result == "result"
    assert joined == [(1.0, "result")]


def test_join_after_completion():
    sim = Simulator()

    def worker():
        yield Delay(1.0)
        return 7

    p = Process(sim, worker)
    sim.run()
    fut = p.join()
    sim.run()
    assert fut.done and fut.value == 7


def test_yield_process_joins_it():
    sim = Simulator()
    trace = []

    def child():
        yield Delay(2.0)
        return "child-done"

    def parent():
        result_proc = Process(sim, child)
        yield result_proc
        trace.append(sim.now)

    Process(sim, parent)
    sim.run()
    assert trace == [2.0]


def test_start_delay():
    sim = Simulator()
    trace = []

    def worker():
        trace.append(sim.now)
        yield Delay(0.0)

    Process(sim, worker, start_delay=5.0)
    sim.run()
    assert trace == [5.0]


def test_kill_stops_process():
    sim = Simulator()
    trace = []

    def worker():
        try:
            yield Delay(10.0)
            trace.append("never")
        except ProcessKilled:
            trace.append("killed")
            raise

    p = Process(sim, worker)
    sim.schedule(1.0, p.kill)
    sim.run()
    assert trace == ["killed"]
    assert p.finished


def test_kill_before_start_never_runs_the_body_and_wakes_joiners():
    sim = Simulator()
    ran = []

    def worker(tag):
        ran.append(tag)
        yield Delay(1.0)

    p = Process(sim, worker, "w", start_delay=2.0)
    joined = p.join()
    p.kill()
    assert p.finished and p.result is None
    sim.run()
    assert ran == [] and joined.value is None
    assert sim.now == 2.0  # the start event still fires, and does nothing


def test_join_before_start_resolves_with_the_result():
    sim = Simulator()

    def worker(x):
        yield Delay(1.0)
        return x * 2

    p = Process(sim, worker, 21, start_delay=3.0)
    joined = [p.join(), p.join()]
    assert not p.finished
    sim.run()
    assert [f.value for f in joined] == [42, 42]
    assert p.result == 42 and sim.now == 4.0


def test_exception_at_first_resume_propagates_from_run():
    sim = Simulator()

    def worker(message):
        raise RuntimeError(message)
        yield  # pragma: no cover - makes this a generator function

    p = Process(sim, worker, "boom", start_delay=1.0)
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()
    assert sim.now == 1.0 and not p.finished


def test_bad_yield_type_raises():
    sim = Simulator()

    def worker():
        yield "garbage"

    Process(sim, worker)
    with pytest.raises(TypeError):
        sim.run()


def test_all_of_waits_for_every_future():
    sim = Simulator()
    futs = [Future(sim) for _ in range(3)]
    trace = []

    def waiter():
        combined = all_of(sim, futs)
        yield combined
        trace.append((sim.now, combined.value))

    Process(sim, waiter)
    sim.schedule(1.0, futs[2].resolve, "c")
    sim.schedule(2.0, futs[0].resolve, "a")
    sim.schedule(3.0, futs[1].resolve, "b")
    sim.run()
    assert trace == [(3.0, ["a", "b", "c"])]


def test_all_of_empty_resolves_immediately():
    sim = Simulator()
    combined = all_of(sim, [])
    assert combined.done and combined.value == []


def test_many_processes_interleave_deterministically():
    sim = Simulator()
    trace = []

    def worker(name, period):
        for _ in range(3):
            yield Delay(period)
            trace.append((sim.now, name))

    Process(sim, worker, "fast", 1.0)
    Process(sim, worker, "slow", 1.5)
    sim.run()
    # At t=3.0 both fire; "slow" scheduled its resume first (at t=1.5,
    # vs t=2.0 for "fast"), so FIFO tie-breaking wakes it first.
    assert trace == [
        (1.0, "fast"),
        (1.5, "slow"),
        (2.0, "fast"),
        (3.0, "slow"),
        (3.0, "fast"),
        (4.5, "slow"),
    ]


def _traced(sim, book):
    """Dispatch trace of a run: ``book(sim, body)`` books the starts."""
    trace = []

    def body(name, dwell):
        trace.append((sim.now, name))
        yield Delay(dwell)
        trace.append((sim.now, name + " done"))

    def tick(name):
        trace.append((sim.now, name))

    sim.post(0.5, tick, "tick a")
    book(sim, body)
    sim.post(0.5, tick, "tick b")
    sim.post_at(1.0, tick, "tick c")
    fired = []
    while sim.step():
        fired.append(sim._entry[:3] + (sim._entry[3].__qualname__,))
    return trace, fired


# out of time order, with equal times and a start at a tick's instant
STARTS = [(1.0, "c", 0.2), (0.5, "a", 0.5), (0.0, "z", 1.0), (1.0, "d", 0.0),
          (0.5, "b", 0.25)]


def test_an_arrival_stream_dispatches_as_eager_processes():
    """Same keys, same order, same qualnames as one Process per start,
    with other events booked before, after and between them."""
    def eager(sim, body):
        for at, name, dwell in STARTS:
            Process(sim, body, name, dwell, start_delay=at)

    def streamed(sim, body):
        stream = ArrivalStream(sim, body)
        for at, name, dwell in STARTS:
            stream.post(at, name, dwell)
        stream.start()
        assert len(stream) == len(STARTS)
        assert sim.pending == 2  # the tick booked so far, the next arrival

    assert _traced(Simulator(), streamed) == _traced(Simulator(), eager)


def test_an_arrival_stream_passes_its_prefix_and_runs_mid_run():
    sim = Simulator()
    seen = []

    def body(host, name):
        seen.append((sim.now, host, name))
        yield Delay(0.0)

    def book():
        stream = ArrivalStream(sim, body, "host")
        stream.post(1.0, "later")
        stream.post(0.0, "now")
        stream.start()

    sim.post(2.0, book)
    sim.run()
    assert seen == [(2.0, "host", "now"), (3.0, "host", "later")]


@pytest.mark.parametrize("delay", [-1.0, float("nan")])
def test_an_arrival_stream_refuses_a_start_in_the_past(delay):
    sim = Simulator()
    stream = ArrivalStream(sim, lambda: iter(()))
    with pytest.raises(SimulationError):
        stream.post(delay)
    stream.start()
    assert sim.pending == 0 and len(stream) == 0
