"""A simplex network link with bandwidth, propagation delay and DropTail.

The paper's base topology interconnects each pair of ring neighbours
"through a duplex-link with 10 Gb/s bandwidth, 350 us delay, and DropTail
as full queue policy" (section 5, Setup).  A duplex link is modelled as
two independent :class:`Link` objects, one per direction -- which is also
how the Data Cyclotron uses them: BATs clockwise, requests anti-clockwise.

Transmission of a message of ``size`` bytes occupies the link for
``size / bandwidth`` seconds (serialisation) and the message arrives
``delay`` seconds after serialisation completes.  Messages that would
overflow the transmit queue are dropped from the tail and reported to an
optional callback -- the event the DC ``resend()`` timeout recovers from
(section 4.2.3).

A message crossing the link is three steps: enqueue, serialise-end,
delivery.  The delivery is always an event.  The serialise-end is one
only when a message waits behind it: when a message starts serialising,
the link posts its delivery at once (at ``s_end + delay``, stamped with
origin ``s_end``, where the serialise-end would have posted it) and
merely *reserves* the serialise-end's heap key, ``(s_end, now, seq)``.
A second send that finds that key still ahead of the engine pushes the
end under it (*materialises* it), and it then pops the queue as a
classic serialise-end does; one that finds it passed finds the wire
idle.  Either way the end sorts exactly where a pushed serialise-end
would have, and one that fires unpushed is credited to
:attr:`~repro.sim.engine.Simulator.processed`.  Two cases keep the
classic serialise-end event: a link with zero delay (its delivery falls
on the end's own instant, where the early post would run it ahead of
what that instant's earlier events post for it), and a delay change
while a message serialises (it reads the new delay, as the classic end
would).

The delivery's seq is drawn at transmit start instead of at the
serialise-end, which is invisible except in one float coincidence: an
event running at the serialise-end instant, ahead of the serialise-end,
that schedules something for exactly ``delay`` later (another link's
serialise-end lasting exactly this delay, say).  Classically that entry
ran first; here the delivery does.  Byte counts over bandwidths do not
meet the paper's delays in any workload here, and
``tests/test_link_fold_oracle.py`` holds every other tie to the
three-event link.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.events.types import LinkDelivered, LinkDropped, LinkTransmit
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.events.bus import Bus

__all__ = ["Lane", "Link", "LinkStats"]

GBIT = 1e9 / 8  # bytes per second in one gigabit per second


@dataclass
class LinkStats:
    """Counters a link accumulates over its lifetime."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    bytes_sent: int = 0
    bytes_delivered: int = 0
    bytes_dropped: int = 0
    # queue high-water mark in bytes
    max_queue_bytes: int = field(default=0)


class Lane:
    """The links of one direction of a ring, seen whole.

    ``links[p]`` leaves ring position ``p`` for position ``p + step``;
    ``travel`` lists them in the order a message crosses them from
    position 0, twice over, so up to ``n`` consecutive hops from any
    start are one slice.  What the rotation fast path
    (:mod:`repro.core.fastforward`) asks of every link of a run at once
    is kept as one integer per question, *doubled* like ``travel``
    (link ``p`` is bits ``p`` and ``p + n``), so a run is a shift and a
    mask wherever it wraps:

    * ``busy`` -- serialising (a queued message implies it); each link
      flips its bit on the idle <-> busy transition, not per message.
      A serialise-end that fires unpushed clears the bit only when
      somebody looks (:meth:`Link._settle`), so a set bit may be stale;
    * ``lossy`` -- behind a channel that injects loss;
    * ``reserved`` -- owed a hop by a coalesced flight.  Who holds which
      link is the flight's own ``held`` mask (``holders`` lists the
      flights in the air), so reserving and freeing an arc are one
      integer operation each;
    * ``pending`` -- link statistics of landed flights not yet applied:
      per message size a difference array over the doubled positions,
      two writes per flight, four if it ran more than a rotation
      (:meth:`account`), summed into the links'
      records when somebody reads one (:meth:`fold`).  Every counter is
      an integer sum or a maximum, so when it is applied cannot matter;
    * ``steps`` -- per message size, what each link of ``travel`` adds
      to the clock of a message that finds it idle: its serialisation
      time, then its delay.  A running sum over a slice *is* the wire's
      own float recurrence (``s_end = t + size/bandwidth; t = s_end +
      delay``), operation for operation.  Dropped whenever a link's
      bandwidth or delay is set.

    A link outside any ring belongs to the empty ``_NO_LANE`` with bit
    0: the same code runs and changes nothing.
    """

    __slots__ = (
        "links", "travel", "n", "step", "full", "capacity",
        "busy", "lossy", "reserved", "holders", "pending", "folds", "steps",
    )

    def __init__(self, links: Sequence["Link"] = (), step: int = 1):
        n = len(links)
        self.links = list(links)
        self.travel = [self.links[(j * step) % n] for j in range(n)] * 2
        self.n = n
        self.step = step
        self.full = (1 << 2 * n) - 1
        # the tightest transmit queue: a message larger than it is dropped
        capacities = [
            link.queue_capacity for link in links if link.queue_capacity is not None
        ]
        self.capacity = min(capacities) if capacities else float("inf")
        self.busy = 0
        self.lossy = 0
        self.reserved = 0
        self.holders: list = []
        self.pending: Dict[int, List[int]] = {}
        self.folds = 0
        self.steps: Dict[int, List[float]] = {}
        for pos, link in enumerate(links):
            link._settle()  # while its busy bit is still its old lane's
            link.lane = self
            link.ring_pos = pos
            link.lane_bit = (1 << pos) | (1 << (pos + n))
            if link._busy:
                self.busy |= link.lane_bit

    def arc(self, start: int, first: int, count: int) -> int:
        """The ``count`` links a message that left position ``start``
        crosses from its hop ``first`` on, as a doubled mask (all of them
        once ``count`` covers a rotation)."""
        n = self.n
        if count >= n:
            return self.full
        low = start + first if self.step > 0 else start + n - first - count + 1
        run = ((1 << count) - 1) << low
        return (run | run << n | run >> n) & self.full

    def holder(self, link: "Link"):
        """The flight owed a hop over ``link``, if any."""
        bit = link.lane_bit
        if self.reserved & bit:
            for flight in self.holders:
                if flight.held & bit:
                    return flight
        return None

    def time(self, wire: int) -> List[float]:
        """``steps[wire]``, built on first use."""
        steps = self.steps[wire] = [
            step
            for link in self.travel
            for step in (wire / link.bandwidth, link.delay)
        ]
        return steps

    def account(self, wire: int, start: int, count: int) -> None:
        """One ``wire``-byte message crossed the first ``count`` links
        out of position ``start``, queueing nowhere -- every link once
        per whole rotation among them, then a run."""
        diff = self.pending.get(wire)
        if diff is None:
            diff = self.pending[wire] = [0] * (2 * self.n + 1)
        if count >= self.n:
            rotations, count = divmod(count, self.n)
            diff[0] += rotations
            diff[self.n] -= rotations
            if not count:
                return
        low = start if self.step > 0 else start + self.n - count + 1
        diff[low] += 1
        diff[low + count] -= 1

    def fold(self) -> None:
        """Apply the pending statistics to the links' records."""
        n = self.n
        for wire, diff in self.pending.items():
            crossings = list(accumulate(diff))
            for pos, link in enumerate(self.links):
                count = crossings[pos] + crossings[pos + n]
                if count:
                    stats = link._stats
                    stats.messages_sent += count
                    stats.messages_delivered += count
                    stats.bytes_sent += count * wire
                    stats.bytes_delivered += count * wire
                    if stats.max_queue_bytes < wire:
                        stats.max_queue_bytes = wire
        self.pending.clear()
        self.folds += 1


_NO_LANE = Lane()


class Link:
    """A simplex link: FIFO transmit queue -> serialisation -> propagation.

    Parameters
    ----------
    sim:
        The event engine.
    bandwidth:
        Bytes per second (default 10 Gb/s, the paper's setup).
    delay:
        Propagation delay in seconds (default 350 us).
    queue_capacity:
        Transmit queue capacity in bytes; ``None`` means unbounded.
        A full queue drops new messages from the tail (DropTail).
    on_receive:
        Callback ``fn(message, size)`` invoked at the destination when a
        message fully arrives.
    on_drop:
        Optional callback ``fn(message, size)`` when DropTail discards.
    bus:
        Optional event bus; when a subscriber wants them, the link
        publishes :class:`LinkTransmit` / :class:`LinkDelivered` /
        :class:`LinkDropped` events (no cost otherwise).
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth: float = 10 * GBIT,
        delay: float = 350e-6,
        queue_capacity: Optional[int] = None,
        on_receive: Optional[Callable[[Any, int], None]] = None,
        on_drop: Optional[Callable[[Any, int], None]] = None,
        name: str = "link",
        bus: Optional["Bus"] = None,
    ):
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if delay < 0:
            raise ValueError("delay cannot be negative")
        self.sim = sim
        # ``set_bandwidth`` and the ``delay`` setter are the only writers
        # once the link is in use: both re-time the lane
        self.bandwidth = bandwidth
        self._delay = delay
        self.queue_capacity = queue_capacity
        self.on_receive = on_receive
        self.on_drop = on_drop
        self.name = name
        self.bus = bus
        # Cached bus.wants() verdicts, refreshed when the bus version
        # moves -- one int compare per message instead of a method call.
        self._bus_version = -1
        self._wants_tx = False
        self._wants_rx = False
        self._wants_drop = False
        # what the link itself counted; ``stats`` adds what its lane
        # still owes it
        self._stats = LinkStats()
        # busy_time is derived, not accumulated: seconds folded at the last
        # bandwidth change, and ``stats.bytes_sent`` at that fold
        self._busy_base = 0.0
        self._busy_mark = 0
        self._queue: Deque[Tuple[Any, int]] = deque()
        self._queued_bytes = 0
        # serialising, as of the last look: an unpushed serialise-end
        # that has fired since is noticed by ``_settle``
        self._busy = False
        # when the in-progress serialisation frees the wire (valid while
        # ``_busy``); the fast-forward tolerance predicate uses it to
        # bound when current traffic drains
        self._busy_until = 0.0
        # the heap key reserved for the in-progress serialisation's end
        # (None if a classic serialise-end event finishes it), and the
        # same key while it is not pushed (see the module docstring)
        self._key: Optional[tuple] = None
        self._end: Optional[tuple] = None
        sim.hold_reservations(self)
        # observability only (no summary reads them): serialise-ends left
        # unpushed at transmit start, and those of them pushed later (a
        # message came to wait, or the delay changed)
        self.ends_folded = 0
        self.ends_materialised = 0
        # the ring direction this link is part of, its doubled bit in
        # the lane's masks and the sending node's ring position -- all
        # three written by Lane
        self.lane = _NO_LANE
        self.lane_bit = 0
        self.ring_pos = -1
        # messages serialising or propagating (popped from the queue but
        # not yet delivered), in transmit order; fault injection needs to
        # see what is on the wire to account for crash-time losses and
        # ring-byte conservation
        self._in_flight: Deque[Tuple[Any, int]] = deque()

    # ------------------------------------------------------------------
    @property
    def stats(self) -> LinkStats:
        """The link's counters, landed fast-forward flights included."""
        lane = self.lane
        if lane.pending:
            lane.fold()
        return self._stats

    @property
    def queued_bytes(self) -> int:
        """Bytes currently waiting in the transmit queue."""
        return self._queued_bytes

    @property
    def busy(self) -> bool:
        """True while a message is being serialised onto the wire."""
        self._settle()
        return self._busy

    def _settle(self) -> bool:
        """Notice an unpushed serialise-end the engine has passed; True
        if there was one (the link looked busy and is idle)."""
        end = self._end
        if end is not None and end < self.sim._entry:
            self._end_fired()
            return True
        return False

    def _end_fired(self) -> None:
        """The unpushed serialise-end has fired: credit it; the wire is
        idle (a queued message would have had it pushed)."""
        self._end = self._key = None
        self._busy = False
        self.lane.busy ^= self.lane_bit
        self.sim.credit(1)

    def queued_items(self) -> list[Tuple[Any, int]]:
        """Snapshot of (message, size) pairs waiting in the transmit queue."""
        return list(self._queue)

    def in_flight_items(self) -> list[Tuple[Any, int]]:
        """Snapshot of (message, size) pairs currently on the wire."""
        return list(self._in_flight)

    def purge_queue(self) -> list[Tuple[Any, int]]:
        """Drop every queued message (crash semantics: the sender's memory
        is gone).  Messages already on the wire keep propagating.  Returns
        the purged (message, size) pairs so callers can account the loss;
        the DropTail counters and callback are deliberately not touched.
        """
        purged = list(self._queue)
        self._queue.clear()
        self._queued_bytes = 0
        return purged

    def _refresh_wants(self) -> None:
        bus = self.bus
        self._bus_version = bus.version
        self._wants_tx = bus.wants(LinkTransmit)
        self._wants_rx = bus.wants(LinkDelivered)
        self._wants_drop = bus.wants(LinkDropped)

    @property
    def delay(self) -> float:
        """Propagation delay in seconds."""
        return self._delay

    @delay.setter
    def delay(self, delay: float) -> None:
        if delay < 0:
            raise ValueError("delay cannot be negative")
        self._settle()
        if self._key is not None:
            self._unfold()
        self._delay = delay
        self.lane.steps.clear()

    def _unfold(self) -> None:
        """Hand the message serialising now back to a classic
        serialise-end event, which reads the delay when it fires: its
        delivery, posted at transmit start, is withdrawn.  The delivery
        drew the seq right after the reserved key's, and the key holds
        a pushed end unless ``_end`` still has it.  Rare (a link
        degradation), so a heap scan."""
        key = self._key
        seq = key[2]
        heap = self.sim._heap
        (delivery,) = [entry for entry in heap if entry[2] == seq + 1]
        heap[:] = [entry for entry in heap if entry[2] not in (seq, seq + 1)]
        heapq.heapify(heap)
        heapq.heappush(heap, key + (self._serialised, delivery[4], None))
        if self._end is not None:
            self.ends_materialised += 1
        self._key = self._end = None

    @property
    def busy_time(self) -> float:
        """Seconds spent serialising: bytes sent over bandwidth, summed per
        bandwidth epoch.  Integer sums and one division per epoch, so the
        value does not depend on the order messages were accounted in --
        a fast-forwarded run reads bit-identical to a classic one."""
        return self._busy_base + (self.stats.bytes_sent - self._busy_mark) / self.bandwidth

    def set_bandwidth(self, bandwidth: float) -> None:
        """Change the bandwidth for messages serialised from now on,
        closing the busy-time epoch of the old one."""
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self._busy_base = self.busy_time
        self._busy_mark = self.stats.bytes_sent
        self.bandwidth = bandwidth
        self.lane.steps.clear()

    # ------------------------------------------------------------------
    def send(self, message: Any, size: int) -> bool:
        """Enqueue ``message`` of ``size`` bytes; False if DropTail dropped it."""
        if size < 0:
            raise ValueError("message size cannot be negative")
        lane = self.lane
        if lane.reserved and lane.reserved & self.lane_bit:
            # a coalesced flight is owed this link: it yields (lands in
            # real link state) unless it provably does not interact
            lane.holder(self).touch(self, size)
        if (
            self.queue_capacity is not None
            and self._queued_bytes + size > self.queue_capacity
        ):
            self._stats.messages_dropped += 1
            self._stats.bytes_dropped += size
            bus = self.bus
            if bus is not None:
                if bus.version != self._bus_version:
                    self._refresh_wants()
                if self._wants_drop:
                    bus.publish(
                        LinkDropped(
                            self.sim.now, self.name, size, type(message).__name__
                        )
                    )
            if self.on_drop is not None:
                self.on_drop(message, size)
            return False
        end = self._end
        if end is not None:
            self._end = None
            sim = self.sim
            if end < sim._entry:
                # the unpushed serialise-end has fired: the wire went
                # idle then and takes this message now
                sim._processed += 1
                sim._credited += 1
            else:
                # the message waits behind it: the end becomes an event
                self.ends_materialised += 1
                heapq.heappush(sim._heap, end + (self._transmit_next, (), None))
                self._enqueue(message, size)
                return True
        elif self._busy:
            self._enqueue(message, size)
            return True
        else:
            self._busy = True
            lane.busy |= self.lane_bit
        # straight onto the idle wire: through an empty queue
        stats = self._stats
        if stats.max_queue_bytes < size:
            stats.max_queue_bytes = size
        self._start(message, size)
        return True

    def _enqueue(self, message: Any, size: int) -> None:
        self._queue.append((message, size))
        self._queued_bytes += size
        stats = self._stats
        if stats.max_queue_bytes < self._queued_bytes:
            stats.max_queue_bytes = self._queued_bytes

    # ------------------------------------------------------------------
    def _start(self, message: Any, size: int) -> None:
        """Put ``message`` on the (busy-marked) wire."""
        self._in_flight.append((message, size))
        now = self.sim.now
        s_end = now + size / self.bandwidth
        self._busy_until = s_end
        stats = self._stats
        stats.messages_sent += 1
        stats.bytes_sent += size
        bus = self.bus
        if bus is not None:
            if bus.version != self._bus_version:
                self._refresh_wants()
            if self._wants_tx:
                bus.publish(
                    LinkTransmit(now, self.name, size, type(message).__name__)
                )
        self._serialise(message, size, now, s_end)

    def _serialise(self, message: Any, size: int, start: float, s_end: float) -> None:
        """Schedule the crossing of a message serialising from ``start``
        to ``s_end``: post its delivery and reserve its serialise-end
        (pushed at once if a message already waits), or on a zero-delay
        link push the classic serialise-end, which posts the delivery."""
        sim = self.sim
        seq = sim._seq
        key = (s_end, start, next(seq))
        heap = sim._heap
        delay = self._delay
        if not delay:
            self._key = None
            heapq.heappush(heap, key + (self._serialised, (message, size), None))
            return
        self._key = key
        heapq.heappush(
            heap,
            (s_end + delay, s_end, next(seq), self._deliver, (message, size), None),
        )
        if self._queue:
            heapq.heappush(heap, key + (self._transmit_next, (), None))
        else:
            self._end = key
            self.ends_folded += 1

    def _put_back(self, message: Any, size: int, start: float, s_end: float) -> None:
        """Re-enter a crossing a coalesced flight was making: serialising
        on this link since ``start``, until ``s_end``.  The link is idle
        then, though an unpushed serialise-end of traffic the flight let
        pass may not have been noticed yet.  Its sender-side counters
        are the caller's."""
        self._settle()
        self._in_flight.append((message, size))
        self._busy = True
        self._busy_until = s_end
        self.lane.busy |= self.lane_bit
        self._serialise(message, size, start, s_end)

    def _transmit_next(self) -> None:
        # a serialise-end event: the next queued message, or an idle wire
        if self._queue:
            message, size = self._queue.popleft()
            self._queued_bytes -= size
            self._start(message, size)
        else:
            self._busy = False
            self._key = None
            self.lane.busy ^= self.lane_bit

    def _serialised(self, message: Any, size: int) -> None:
        # the classic serialise-end: the wire is free for the next message
        # while this one propagates for ``delay`` more
        self.sim.post(self._delay, self._deliver, message, size)
        self._transmit_next()

    def _deliver(self, message: Any, size: int) -> None:
        in_flight = self._in_flight
        head = in_flight[0]
        if head[0] is message and head[1] == size:
            in_flight.popleft()
        else:
            # overtaken: a later message on a shorter delay, or a
            # crossing a fast-forward flush put back behind later traffic
            in_flight.remove((message, size))
        stats = self._stats
        stats.messages_delivered += 1
        stats.bytes_delivered += size
        bus = self.bus
        if bus is not None:
            if bus.version != self._bus_version:
                self._refresh_wants()
            if self._wants_rx:
                bus.publish(
                    LinkDelivered(self.sim.now, self.name, size, type(message).__name__)
                )
        if self.on_receive is not None:
            self.on_receive(message, size)
