"""Generator-based processes and futures on top of the event engine.

The Data Cyclotron query lifecycle maps naturally onto coroutines: a
query *registers*, issues ``request()`` calls, then alternates between
``pin()`` (block until the BAT flows past, paper section 4.1) and a
simulated operator execution (a sleep).  A :class:`Process` runs a
generator function; the generator it returns yields:

* :class:`Delay` -- sleep for a simulated duration,
* :class:`Future` -- suspend until another party resolves it,
* another :class:`Process` -- join it (resume when it finishes).

An :class:`ArrivalStream` starts many processes at times booked up
front (an open-loop workload's queries) while holding only a record per
process that has not started yet.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Optional

from repro.sim.engine import SimulationError, Simulator

__all__ = ["ArrivalStream", "Delay", "Future", "Process", "ProcessKilled"]


class Delay:
    """Yielded by a process to sleep for ``duration`` simulated seconds."""

    __slots__ = ("duration",)

    def __init__(self, duration: float):
        if duration < 0:
            raise ValueError(f"negative delay: {duration}")
        self.duration = duration

    def __repr__(self) -> str:  # pragma: no cover
        return f"Delay({self.duration})"


class Future:
    """A one-shot synchronisation point.

    A ``pin()`` call in the DBMS layer blocks the interpreter thread until
    the requested BAT arrives (paper section 4.2.1); we model the blocked
    thread as a process suspended on a Future that the DC runtime resolves
    when the BAT flows in from the predecessor node.
    """

    __slots__ = ("sim", "_done", "_value", "_callbacks")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._done = False
        self._value: Any = None
        self._callbacks: list[Callable[[Any], None]] = []

    @property
    def done(self) -> bool:
        return self._done

    @property
    def value(self) -> Any:
        if not self._done:
            raise RuntimeError("future not resolved yet")
        return self._value

    def resolve(self, value: Any = None) -> None:
        """Resolve the future; wakes all waiters at the current sim time."""
        if self._done:
            raise RuntimeError("future already resolved")
        self._done = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            # Schedule rather than call directly so waiters observe a
            # consistent world state and wake in FIFO order.
            self.sim.post(0.0, cb, value)

    def add_callback(self, cb: Callable[[Any], None]) -> None:
        if self._done:
            self.sim.post(0.0, cb, self._value)
        else:
            self._callbacks.append(cb)


class ProcessKilled(Exception):
    """Thrown into a generator when its process is killed."""


class Process:
    """Drives a generator function as a simulated process.

    ``Process(sim, body, *args, start_delay=0.0)`` calls ``body(*args)``
    at the first resume, ``start_delay`` after construction, so a
    process that has not started holds its arguments, not a generator
    frame.  ``start_delay=None`` posts nothing: the caller pushes the
    first ``_resume`` itself (:class:`ArrivalStream`).  A finished
    process drops its generator; the waiter list is allocated by the
    first :meth:`join`.

    >>> sim = Simulator()
    >>> log = []
    >>> def worker(name):
    ...     log.append((name, "start", sim.now))
    ...     yield Delay(2.0)
    ...     log.append((name, "end", sim.now))
    >>> p = Process(sim, worker, "w")
    >>> sim.run()
    >>> log
    [('w', 'start', 0.0), ('w', 'end', 2.0)]
    """

    __slots__ = ("sim", "_body", "_args", "_gen", "_finished", "_result",
                 "_waiters")

    def __init__(self, sim: Simulator, body: Callable[..., Generator],
                 *args: Any, start_delay: Optional[float] = 0.0):
        self.sim = sim
        self._body: Optional[Callable[..., Generator]] = body
        self._args = args
        self._gen: Optional[Generator] = None
        self._finished = False
        self._result: Any = None
        self._waiters: Optional[list[Future]] = None
        if start_delay is not None:
            sim.post(start_delay, self._resume, None)

    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def result(self) -> Any:
        if not self._finished:
            raise RuntimeError("process still running")
        return self._result

    def join(self) -> Future:
        """Future resolved (with the process result) when the process ends."""
        fut = Future(self.sim)
        if self._finished:
            fut.resolve(self._result)
        elif self._waiters is None:
            self._waiters = [fut]
        else:
            self._waiters.append(fut)
        return fut

    def kill(self) -> None:
        """Terminate the process by throwing :class:`ProcessKilled` into it.

        A process killed before its first resume never runs its body.
        """
        if self._finished:
            return
        if self._gen is not None:
            try:
                self._gen.throw(ProcessKilled())
            except (ProcessKilled, StopIteration):
                pass
        self._complete(None)

    # ------------------------------------------------------------------
    def _resume(self, sent_value: Any) -> None:
        if self._finished:
            return
        gen = self._gen
        if gen is None:
            gen = self._gen = self._body(*self._args)
            self._body = self._args = None
        try:
            yielded = gen.send(sent_value)
        except StopIteration as stop:
            self._complete(stop.value)
            return
        if isinstance(yielded, Delay):
            self.sim.post(yielded.duration, self._resume, None)
        elif isinstance(yielded, Future):
            yielded.add_callback(self._resume)
        elif isinstance(yielded, Process):
            yielded.join().add_callback(self._resume)
        else:
            raise TypeError(
                f"process yielded {yielded!r}; expected Delay, Future or Process"
            )

    def _complete(self, result: Any) -> None:
        if self._finished:
            return
        self._finished = True
        self._result = result
        self._body = self._args = self._gen = None
        waiters, self._waiters = self._waiters, None
        for fut in waiters or ():
            fut.resolve(result)


class ArrivalStream:
    """Processes booked now, built one arrival ahead of the clock.

    ``ArrivalStream(sim, body, *prefix)``, then ``post(delay, *args)``
    per process, then :meth:`start` once.  Each ``post`` draws the heap key
    ``Process(sim, body, *prefix, *args, start_delay=delay)`` would have
    drawn at that point, ``(now + delay, now, seq)``, and keeps one
    record: that key and ``args``.  :meth:`start` sorts the records by
    key and puts the earliest on the heap as a :class:`Process` whose
    first ``_resume`` carries that key.  When that process starts, the
    stream builds the next record's process and pushes it under its own
    key, which is larger, so the next arrival is on the heap before the
    engine could need it.  Every process therefore dispatches at the
    key, and in the order, the eager processes would have, and the
    ``SimEventFired`` stream (``Process._resume`` at each key) is the
    same; a booked arrival costs a record until it is one arrival away.
    Only the next arrival counts in :attr:`Simulator.pending`.

    >>> sim = Simulator()
    >>> log = []
    >>> def hello(name):
    ...     log.append((name, sim.now))
    ...     yield Delay(0.0)
    >>> stream = ArrivalStream(sim, hello)
    >>> stream.post(2.0, "late")
    >>> stream.post(1.0, "early")
    >>> stream.start()
    >>> sim.pending, len(stream)
    (1, 2)
    >>> sim.run()
    >>> log
    [('early', 1.0), ('late', 2.0)]
    """

    __slots__ = ("sim", "_body", "_prefix", "_records", "_booked")

    def __init__(self, sim: Simulator, body: Callable[..., Generator],
                 *prefix: Any):
        self.sim = sim
        self._body = body
        self._prefix = prefix
        # (time, scheduled at, seq, *args); latest first once started,
        # so the next arrival is popped off the end
        self._records: list[tuple] = []
        self._booked = 0

    def __len__(self) -> int:
        """Processes booked, started or not."""
        return self._booked

    def post(self, delay: float, *args: Any) -> None:
        """Book ``body(*prefix, *args)`` to start ``delay`` from now."""
        sim = self.sim
        time = sim.now + delay
        if not delay >= 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._records.append((time, sim.now, next(sim._seq), *args))
        self._booked += 1

    def start(self) -> None:
        """Put the earliest booked arrival on the heap."""
        self._records.sort(reverse=True)
        self._push_next()

    def _push_next(self) -> None:
        records = self._records
        if not records:
            return
        record = records.pop()
        proc = Process(self.sim, self._arrive, *record[3:], start_delay=None)
        heapq.heappush(
            self.sim._heap, (*record[:3], proc._resume, (None,), None)
        )

    def _arrive(self, *args: Any) -> Generator:
        """A booked process's body: hand the heap the next arrival, then
        run the real body."""
        self._push_next()
        return self._body(*self._prefix, *args)


def all_of(sim: Simulator, futures: list[Future]) -> Future:
    """A future resolved once every future in ``futures`` has resolved."""
    combined = Future(sim)
    remaining = len(futures)
    if remaining == 0:
        combined.resolve([])
        return combined
    results: list[Any] = [None] * remaining

    def _make(i: int) -> Callable[[Any], None]:
        def _cb(value: Any) -> None:
            nonlocal remaining
            results[i] = value
            remaining -= 1
            if remaining == 0:
                combined.resolve(results)

        return _cb

    for i, fut in enumerate(futures):
        fut.add_callback(_make(i))
    return combined
