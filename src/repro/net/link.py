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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Deque, Optional, Tuple

from repro.events.types import LinkDelivered, LinkDropped, LinkTransmit
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.events.bus import Bus

__all__ = ["Link", "LinkStats"]

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
        self.bandwidth = bandwidth
        self.delay = delay
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
        # mutated in place, never rebound: the fast-forwarder's lanes cache
        # this object per hop (repro.core.fastforward)
        self.stats = LinkStats()
        # busy_time is derived, not accumulated: seconds folded at the last
        # bandwidth change, and ``stats.bytes_sent`` at that fold
        self._busy_base = 0.0
        self._busy_mark = 0
        self._queue: Deque[Tuple[Any, int]] = deque()
        self._queued_bytes = 0
        self._busy = False
        # when the in-progress serialisation frees the wire (valid while
        # ``_busy``); the fast-forward tolerance predicate uses it to
        # bound when current traffic drains
        self._busy_until = 0.0
        # the rotation fast-forward flight currently crossing this link,
        # if any (repro.core.fastforward); a competing send flushes it
        # back into real link state before queueing behind it
        self.ff_transit = None
        # ring position of the sending node, written by the forwarder
        self.ring_pos = -1
        # messages serialising or propagating (popped from the queue but
        # not yet delivered); fault injection needs to see what is on the
        # wire to account for crash-time losses and ring-byte conservation
        self._in_flight: list[Tuple[Any, int]] = []

    # ------------------------------------------------------------------
    @property
    def queued_bytes(self) -> int:
        """Bytes currently waiting in the transmit queue."""
        return self._queued_bytes

    @property
    def queued_messages(self) -> int:
        return len(self._queue)

    @property
    def busy(self) -> bool:
        """True while a message is being serialised onto the wire."""
        return self._busy

    @property
    def in_flight_bytes(self) -> int:
        """Bytes serialising or propagating (left the queue, not delivered)."""
        return sum(size for _, size in self._in_flight)

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

    def transfer_time(self, size: int) -> float:
        """Serialisation + propagation time for an unqueued message."""
        return size / self.bandwidth + self.delay

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

    # ------------------------------------------------------------------
    def send(self, message: Any, size: int) -> bool:
        """Enqueue ``message`` of ``size`` bytes; False if DropTail dropped it."""
        ft = self.ff_transit
        if ft is not None:
            ft.touch(self, size)
        if size < 0:
            raise ValueError("message size cannot be negative")
        if (
            self.queue_capacity is not None
            and self._queued_bytes + size > self.queue_capacity
        ):
            self.stats.messages_dropped += 1
            self.stats.bytes_dropped += size
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
        self._queue.append((message, size))
        self._queued_bytes += size
        self.stats.max_queue_bytes = max(self.stats.max_queue_bytes, self._queued_bytes)
        if not self._busy:
            self._transmit_next()
        return True

    # ------------------------------------------------------------------
    def _transmit_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        message, size = self._queue.popleft()
        self._queued_bytes -= size
        self._in_flight.append((message, size))
        tx_time = size / self.bandwidth
        self._busy_until = self.sim.now + tx_time
        self.stats.messages_sent += 1
        self.stats.bytes_sent += size
        bus = self.bus
        if bus is not None:
            if bus.version != self._bus_version:
                self._refresh_wants()
            if self._wants_tx:
                bus.publish(
                    LinkTransmit(self.sim.now, self.name, size, type(message).__name__)
                )
        # Serialisation finishes after tx_time; the wire is then free for
        # the next message while this one propagates for ``delay`` more.
        self.sim.post(tx_time, self._serialised, message, size)

    def _serialised(self, message: Any, size: int) -> None:
        self.sim.post(self.delay, self._deliver, message, size)
        self._transmit_next()

    def _deliver(self, message: Any, size: int) -> None:
        self._in_flight.remove((message, size))
        self.stats.messages_delivered += 1
        self.stats.bytes_delivered += size
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
