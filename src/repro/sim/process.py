"""Generator-based processes and futures on top of the event engine.

The Data Cyclotron query lifecycle maps naturally onto coroutines: a
query *registers*, issues ``request()`` calls, then alternates between
``pin()`` (block until the BAT flows past, paper section 4.1) and a
simulated operator execution (a sleep).  A :class:`Process` runs a
generator function; the generator it returns yields:

* :class:`Delay` -- sleep for a simulated duration,
* :class:`Future` -- suspend until another party resolves it,
* another :class:`Process` -- join it (resume when it finishes).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.sim.engine import Simulator

__all__ = ["Delay", "Future", "Process", "ProcessKilled"]


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
    frame.  A finished process drops its generator; the waiter list is
    allocated by the first :meth:`join`.

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
                 *args: Any, start_delay: float = 0.0):
        self.sim = sim
        self._body: Optional[Callable[..., Generator]] = body
        self._args = args
        self._gen: Optional[Generator] = None
        self._finished = False
        self._result: Any = None
        self._waiters: Optional[list[Future]] = None
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
