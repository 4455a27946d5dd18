"""In-order asynchronous channels with optional loss injection.

"The underlying network is configured as asynchronous channels with
guaranteed order of arrival" (paper, section 4.3).  A :class:`Channel`
wraps a :class:`~repro.net.link.Link` and adds:

* a stable receiver callback (set after construction, so rings can be
  wired before node logic exists) -- installed as the link's own
  ``on_receive``, so a delivery lands straight in the node,
* probabilistic loss injection, used by the fault-injection tests to
  exercise the ``resend()`` recovery path of section 4.2.3,
* per-message-kind accounting.

Because the underlying link is FIFO at every stage (queue, wire,
propagation), order of arrival is guaranteed by construction; a property
test asserts it under random traffic.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.events.types import ChannelLoss
from repro.net.link import Link
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.events.bus import Bus

__all__ = ["Channel"]


class Channel:
    """A reliable-by-default, in-order message channel between two nodes."""

    def __init__(
        self,
        sim: Simulator,
        bandwidth: float,
        delay: float,
        queue_capacity: Optional[int] = None,
        loss_rate: float = 0.0,
        rng: Optional[random.Random] = None,
        name: str = "channel",
        bus: Optional["Bus"] = None,
    ):
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        self.sim = sim
        self.name = name
        self.loss_rate = loss_rate
        self.bus = bus
        self._rng = rng if rng is not None else random.Random(0)
        self._receiver: Optional[Callable[[Any, int], None]] = None
        self._loss_handler: Optional[Callable[[Any, int], None]] = None
        self.dropped_by_loss = 0
        self.link = Link(
            sim,
            bandwidth=bandwidth,
            delay=delay,
            queue_capacity=queue_capacity,
            on_receive=self._arrived,
            name=name,
            bus=bus,
        )
        self._set_loss_rate(loss_rate)

    # ------------------------------------------------------------------
    def set_receiver(self, fn: Callable[[Any, int], None]) -> None:
        """Install the function invoked for every delivered message."""
        self._receiver = fn
        self.link.on_receive = fn

    def set_drop_handler(self, fn: Callable[[Any, int], None]) -> None:
        """Install the DropTail notification handler on the wrapped link."""
        self.link.on_drop = fn

    def set_loss_handler(self, fn: Callable[[Any, int], None]) -> None:
        """Install the handler invoked when loss injection eats a message.

        Keeping loss notification on the channel (symmetric with the
        DropTail handler on the link) lets senders account the two drop
        kinds separately instead of guessing from ``send``'s boolean.
        """
        self._loss_handler = fn

    def send(self, message: Any, size: int) -> bool:
        """Send a message; returns False if dropped (loss or DropTail).

        A loss-free channel draws no random number, so it sends through
        its link directly: :meth:`_set_loss_rate` shadows this method
        with ``link.send`` on the instance while the loss rate is zero.
        """
        if self.loss_rate > 0.0 and self._rng.random() < self.loss_rate:
            self.dropped_by_loss += 1
            bus = self.bus
            if bus is not None and bus.wants(ChannelLoss):
                bus.publish(
                    ChannelLoss(self.sim.now, self.name, size, type(message).__name__)
                )
            if self._loss_handler is not None:
                self._loss_handler(message, size)
            return False
        return self.link.send(message, size)

    @property
    def queued_bytes(self) -> int:
        return self.link.queued_bytes

    @property
    def stats(self):
        return self.link.stats

    # ------------------------------------------------------------------
    # fault injection support
    # ------------------------------------------------------------------
    def in_channel_items(self) -> list:
        """Every (message, size) pair queued or on the wire, sender first."""
        return self.link.queued_items() + self.link.in_flight_items()

    def purge_queue(self) -> list:
        """Drop all queued messages (crash semantics); returns the losses."""
        return self.link.purge_queue()

    def degrade(
        self,
        bandwidth_factor: float = 1.0,
        extra_delay: float = 0.0,
        loss_rate: Optional[float] = None,
    ) -> dict:
        """Apply a link-degradation fault; returns the pre-fault settings.

        Bandwidth and delay changes affect messages serialised after the
        call; messages already on the wire keep their old timing.  Only
        the flight holding *this* link is landed here; a deployment with
        a fast-forwarder disables it first (``DataCyclotron.degrade_link``),
        so no other flight still owes this link a hop at the old bandwidth.
        """
        if bandwidth_factor <= 0:
            raise ValueError("bandwidth_factor must be positive")
        self._land_holder()
        before = {
            "bandwidth": self.link.bandwidth,
            "delay": self.link.delay,
            "loss_rate": self.loss_rate,
        }
        self.link.set_bandwidth(self.link.bandwidth * bandwidth_factor)
        self.link.delay = self.link.delay + extra_delay
        if loss_rate is not None:
            # unlike the constructor, a blackout (1.0) is allowed here:
            # degradations are bounded by the fault's duration
            if not 0.0 <= loss_rate <= 1.0:
                raise ValueError("loss_rate must be in [0, 1]")
            self._set_loss_rate(loss_rate)
        return before

    def restore(self, settings: dict) -> None:
        """Undo a :meth:`degrade`, restoring the saved settings."""
        self._land_holder()
        self.link.set_bandwidth(settings["bandwidth"])
        self.link.delay = settings["delay"]
        self._set_loss_rate(settings["loss_rate"])

    def _land_holder(self) -> None:
        """Freeze the pre-fault timing of anything fast-forwarded here."""
        holder = self.link.lane.holder(self.link)
        if holder is not None:
            holder.flush()

    def _set_loss_rate(self, loss_rate: float) -> None:
        self.loss_rate = loss_rate
        lane, bit = self.link.lane, self.link.lane_bit
        lane.lossy = lane.lossy | bit if loss_rate else lane.lossy & ~bit
        if loss_rate:
            vars(self).pop("send", None)
        else:
            self.send = self.link.send

    # ------------------------------------------------------------------
    def _arrived(self, message: Any, size: int) -> None:
        # the link's receiver until set_receiver installs the real one
        raise RuntimeError(f"channel {self.name!r} has no receiver installed")
