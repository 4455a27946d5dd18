"""The discrete-event engine.

A :class:`Simulator` owns a simulated clock and a priority queue of
events.  Events scheduled for the same instant fire in the order they
were scheduled (FIFO), which keeps protocol traces deterministic -- the
property the paper relies on when comparing LOIT levels across runs
(section 5.1 repeats the identical workload eleven times).

Two scheduling lanes share one heap:

* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` return an
  :class:`Event` handle that can later be cancelled -- the lane for
  resend timers and anything else that may be revoked,
* :meth:`Simulator.post` / :meth:`Simulator.post_at` are the fast lane
  for never-cancelled one-shot callbacks (the overwhelming majority of
  protocol traffic: link serialisation/delivery, process resumption,
  periodic ticks).  They allocate no handle at all -- the heap entry is
  a bare tuple -- and heap ordering compares plain ``(time, seq)``
  tuple prefixes in C instead of calling ``Event.__lt__``.

A third kind of entry is *reserved, not pushed*: a
:class:`~repro.net.link.Link` starting a serialisation draws the heap
key its serialise-end would have had and pushes it only if a message
comes to wait behind it (:meth:`Simulator.hold_reservations`).  Such a
*folded* event never dispatches.  It has fired once the engine has
passed its key: the engine keeps the running heap entry (``_entry``,
whose scheduling time is :attr:`Simulator.dispatch_origin`), and after
a ``run(until=...)`` or :meth:`Simulator.skip_to` the edge it stopped
at.  A fired one is credited like a fast-forwarded hop when somebody
looks, so :attr:`Simulator.processed` reads what a run that pushed
every serialise-end would read, at any moment.

The engine can publish a :class:`~repro.events.types.SimEventFired`
event onto an attached :class:`~repro.events.bus.Bus` for every callback
it dispatches; the publish is skipped entirely (one load of its
topic's ``wanted`` flag) unless somebody subscribed, so attaching a bus
costs nothing on the hot path.
"""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.events.bus import topic_on
from repro.events.types import SimEventFired

if TYPE_CHECKING:  # pragma: no cover
    from repro.events.bus import Bus

__all__ = ["Event", "Simulator", "SimulationError"]

# A cancelled backlog below this size is never worth compacting.
_COMPACT_MIN_CANCELLED = 16

_INF = float("inf")

# Heap entry layout: (time, sched, seq, fn, args, event_or_None).  The
# ``sched`` slot records *when the entry was scheduled* -- for ordinary
# scheduling it equals ``sim.now`` at the push, which is monotone in
# ``seq``, so the (time, sched, seq) order is identical to the classic
# (time, seq) FIFO.  Its purpose is the backdated lane: rotation
# fast-forwarding re-materialises events a classic run would have
# scheduled in the (simulated) past, and stamping them with that classic
# scheduling time slots them into the exact heap position the classic
# run would have used for same-instant ties.  The seq is unique, so
# tuple comparison never reaches fn; entries with a live Event handle
# carry it in the last slot so cancellation can be honoured.
_TIME, _SCHED, _SEQ, _FN, _ARGS, _EVENT = range(6)


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation engine (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback handle (the cancellable lane).

    Events are created through :meth:`Simulator.schedule` /
    :meth:`Simulator.schedule_at` and can be cancelled with
    :meth:`Simulator.cancel` (or :meth:`cancel`).  A cancelled event's
    heap entry stays queued until it is popped or the engine compacts --
    which it does lazily once cancelled entries outnumber live ones, so
    cancel-heavy workloads (resend timers re-armed on every data
    sighting) cannot grow the heap without bound.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "sim")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
        sim: Optional["Simulator"] = None,
    ):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.sim = sim

    def cancel(self) -> None:
        """Mark the event so the engine skips it (idempotent)."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.sim is not None:
            self.sim._note_cancelled()

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.6f} #{self.seq} {getattr(self.fn, '__name__', self.fn)}{state}>"


class Simulator:
    """A deterministic discrete-event simulator.

    >>> sim = Simulator()
    >>> hits = []
    >>> _ = sim.schedule(1.0, hits.append, "a")
    >>> _ = sim.schedule(0.5, hits.append, "b")
    >>> sim.run()
    >>> hits
    ['b', 'a']
    >>> sim.now
    1.0
    """

    def __init__(self, bus: Optional["Bus"] = None) -> None:
        self.now: float = 0.0
        self.bus = bus
        self._heap: list[tuple] = []
        self._seq = itertools.count()
        # How far dispatch has got, as a heap key: the entry running now
        # (or last run), or the edge a ``run(until=...)`` stopped at.
        # Every key below it has fired.  Its scheduling time is
        # ``dispatch_origin``, which lets observers (rotation
        # fast-forwarding) resolve same-instant ties against events a
        # classic run would have scheduled earlier.
        self._entry: tuple = (0.0, 0.0, -1)
        # whoever holds reserved keys (links): see hold_reservations
        self._holders: list = []
        self._running = False
        self._processed = 0
        self._credited = 0  # events accounted for analytically, not dispatched
        self._cancelled = 0  # cancelled events still sitting in the heap
        # who listens to SimEventFired: the hot loop's per-event guard
        self._fired = topic_on(bus, SimEventFired)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} (now is t={self.now})"
            )
        seq = next(self._seq)
        event = Event(time, seq, fn, args, self)
        heapq.heappush(self._heap, (time, self.now, seq, fn, args, event))
        return event

    def post(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fast-lane :meth:`schedule` for a callback that is never cancelled.

        No :class:`Event` handle is allocated; the entry cannot be
        cancelled or introspected, only dispatched.
        """
        time = self.now + delay
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        heapq.heappush(self._heap, (time, self.now, next(self._seq), fn, args, None))

    def post_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fast-lane :meth:`schedule_at` for a never-cancelled callback."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} (now is t={self.now})"
            )
        heapq.heappush(self._heap, (time, self.now, next(self._seq), fn, args, None))

    def post_backdated(
        self, time: float, origin: float, fn: Callable[..., Any], *args: Any
    ) -> None:
        """Fast-lane post stamped with a counterfactual scheduling time.

        ``origin`` is the simulated time at which a classic run would
        have scheduled this callback.  Among entries firing at the same
        ``time``, the heap orders by scheduling time first, so the
        callback dispatches exactly where the classic event would have
        -- before same-instant events scheduled after ``origin``, after
        those scheduled before it.  Used by rotation fast-forwarding to
        re-materialise elided link events bit-exactly.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} (now is t={self.now})"
            )
        heapq.heappush(self._heap, (time, origin, next(self._seq), fn, args, None))

    def schedule_backdated_at(
        self, time: float, origin: float, fn: Callable[..., Any], *args: Any
    ) -> Event:
        """Cancellable-lane :meth:`post_backdated` (returns an Event)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} (now is t={self.now})"
            )
        seq = next(self._seq)
        event = Event(time, seq, fn, args, self)
        heapq.heappush(self._heap, (time, origin, seq, fn, args, event))
        return event

    def hold_reservations(self, holder: Any) -> None:
        """Register ``holder``: an object whose ``_end`` attribute is a
        reserved key it has not pushed (or None) and whose
        ``_end_fired()`` credits it once it has fired.

        A reserved key is what a :meth:`post_at` of ``time`` would have
        pushed now, ``(time, now, next(sim._seq))``.  The holder either
        pushes an entry under it later -- it then sorts exactly where the
        post would have -- or lets it fire unpushed.
        """
        self._holders.append(holder)

    def _settle(self) -> None:
        """Credit every reserved key the engine has passed."""
        entry = self._entry
        for holder in self._holders:
            end = holder._end
            if end is not None and end < entry:
                holder._end_fired()

    def skip_to(self, time: float, inclusive: bool = True) -> None:
        """Move the clock to ``time`` with nothing due before it: what
        ``run(until=time, inclusive=inclusive)`` does on an empty
        window, without entering the loop (the partitioned kernel's
        idle partitions)."""
        if self.now < time:
            self.now = time
        edge = (time, _INF, _INF) if inclusive else (time, -_INF, -_INF)
        if self._entry < edge:
            self._entry = edge

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (idempotent)."""
        event.cancel()

    def credit(self, n: int) -> None:
        """Account for ``n`` events whose effects were computed in closed
        form instead of being dispatched (rotation fast-forwarding).

        Keeps :attr:`processed` identical to a classic run so reports
        and golden snapshots stay bit-comparable; :attr:`dispatched`
        still exposes the real dispatch count.
        """
        self._processed += n
        self._credited += n

    # ------------------------------------------------------------------
    # cancelled-event hygiene
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel`; compacts once >50% is dead."""
        self._cancelled += 1
        if (
            self._cancelled >= _COMPACT_MIN_CANCELLED
            and self._cancelled * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries (stable: the
        (time, seq) order of live events is a total order, so heapify
        preserves FIFO semantics for simultaneous events)."""
        self._heap = [
            entry for entry in self._heap
            if entry[_EVENT] is None or not entry[_EVENT].cancelled
        ]
        heapq.heapify(self._heap)
        self._cancelled = 0

    def _pop_cancelled(self) -> None:
        heapq.heappop(self._heap)
        if self._cancelled > 0:
            self._cancelled -= 1

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _fire(self, entry: tuple) -> None:
        self.now = entry[_TIME]
        self._entry = entry
        self._processed += 1
        if self._fired.wanted:
            fn = entry[_FN]
            self.bus.publish(
                SimEventFired(
                    entry[_TIME],
                    entry[_SEQ],
                    getattr(fn, "__qualname__", repr(fn)),
                )
            )
        entry[_FN](*entry[_ARGS])

    def step(self) -> bool:
        """Run the next pending event.  Returns ``False`` when none remain."""
        while self._heap:
            entry = heapq.heappop(self._heap)
            ev = entry[_EVENT]
            if ev is not None and ev.cancelled:
                if self._cancelled > 0:
                    self._cancelled -= 1
                continue
            self._fire(entry)
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        inclusive: bool = True,
    ) -> None:
        """Drain the event queue.

        ``until`` stops the clock at that simulated time (events beyond it
        stay queued and the clock is advanced to ``until``).  ``max_events``
        bounds the number of callbacks as a runaway-loop safety net; a run
        it stops leaves the clock and the dispatch edge at the last
        dispatched event, so the events still queued fire at their own
        times on the next run.

        ``inclusive`` controls the boundary: by default events scheduled
        at exactly ``until`` still fire, and the dispatch edge is left
        past them (a serialise-end reserved for ``until`` has fired).
        The partitioned kernel (``repro.sim.parallel``) runs windows
        with ``inclusive=False`` so events *at* the window edge are
        deferred to the next window --
        after cross-partition messages timestamped at the edge have been
        delivered -- which is what makes the merged trace independent of
        worker scheduling.
        """
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        self._running = True
        count = 0
        capped = False
        pop = heapq.heappop
        heap = self._heap
        bus = self.bus
        fired = self._fired
        try:
            # The body of ``_fire`` is inlined here: this loop dispatches
            # every simulation callback, so the per-event overhead budget
            # is a handful of attribute loads (no extra function call).
            while heap:
                entry = heap[0]
                ev = entry[5]
                if ev is not None and ev.cancelled:
                    self._pop_cancelled()
                    heap = self._heap  # _pop_cancelled may have compacted
                    continue
                time = entry[0]
                if until is not None and (
                    time > until or (not inclusive and time == until)
                ):
                    break
                pop(heap)
                self.now = time
                self._entry = entry
                self._processed += 1
                if fired.wanted:
                    fn = entry[3]
                    bus.publish(
                        SimEventFired(
                            time,
                            entry[2],
                            getattr(fn, "__qualname__", repr(fn)),
                        )
                    )
                entry[3](*entry[4])
                heap = self._heap  # callbacks may cancel enough to compact
                count += 1
                if max_events is not None and count >= max_events:
                    capped = True
                    break
        finally:
            self._running = False
        if until is not None and not capped:
            self.skip_to(until, inclusive)

    @property
    def dispatch_origin(self) -> float:
        """Scheduling time of the event currently being dispatched.

        For an entry scheduled normally this is ``sim.now`` at the
        moment it was pushed; backdated entries report their stamped
        classic scheduling time.  Rotation fast-forwarding compares it
        against a flight's precomputed hop times to decide whether the
        classic run's (elided) link event would have dispatched before
        or after the currently running one when both fall on the same
        simulated instant.  Outside a dispatch it describes the edge the
        last run stopped at: ``+inf`` if every event at ``now`` has run,
        ``-inf`` if none has (an exclusive ``until``).
        """
        return self._entry[_SCHED]

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._heap) - self._cancelled

    @property
    def processed(self) -> int:
        """Total events accounted for (dispatched plus credits)."""
        self._settle()
        return self._processed

    @property
    def dispatched(self) -> int:
        """Events actually dispatched by the loop (excludes credits)."""
        self._settle()
        return self._processed - self._credited

    @property
    def credited(self) -> int:
        """Events accounted for in closed form: fast-forwarded hops and
        reserved keys that fired unpushed."""
        self._settle()
        return self._credited

    def peek(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if the queue is empty."""
        heap = self._heap
        while heap:
            ev = heap[0][_EVENT]
            if ev is not None and ev.cancelled:
                self._pop_cancelled()
                heap = self._heap
                continue
            return heap[0][_TIME]
        return None
