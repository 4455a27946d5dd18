"""The two message kinds flowing around the storage ring (section 4.3).

"BAT messages contain the fields owner, bat_id, bat_size, loi, copies,
hops, and cycles. ... BAT request messages contain the variables, owner
and bat_id."  In a request message the paper's ``owner`` field denotes
the *requesting* node (the request's origin); we call it ``origin`` to
avoid confusion with the BAT's owning node.

Messages are mutable because the protocols update them in place as they
travel: every hop increments ``hops``, every node that pins the BAT
increments ``copies``, and the owner bumps ``cycles`` when the BAT
completes a rotation (Figures 4 and 5).
"""

from __future__ import annotations

from typing import Any

__all__ = ["BATMessage", "RequestMessage", "HeartbeatMessage"]

BAT_HEADER_SIZE = 64       # a BAT's administrative header, bytes
REQUEST_MESSAGE_SIZE = 64  # a request (or heartbeat) on the wire, bytes


class BATMessage:
    """A data fragment travelling clockwise with its administrative header."""

    __slots__ = (
        "owner",
        "bat_id",
        "size",
        "loi",
        "copies",
        "hops",
        "cycles",
        "payload",
        "version",
        "updating",
        "incarnation",
    )

    def __init__(
        self,
        owner: int,
        bat_id: int,
        size: int,
        loi: float,
        copies: int = 0,
        hops: int = 0,
        cycles: int = 0,
        payload: Any = None,
        version: int = 0,
        updating: bool = False,
        incarnation: int = 0,
    ):
        self.owner = owner
        self.bat_id = bat_id
        self.size = size
        self.loi = loi
        self.copies = copies
        self.hops = hops
        self.cycles = cycles
        # Functional mode carries the actual column data; performance
        # experiments circulate sizes only.
        self.payload = payload
        # Multi-version update support (section 6.4).
        self.version = version
        self.updating = updating
        # Which load of this BAT the message belongs to: the owner
        # swallows returns from a previous incarnation (a copy that was
        # presumed lost but survived), keeping exactly one in flight.
        self.incarnation = incarnation

    def wire_size(self, header_size: int) -> int:
        """Bytes this message occupies on the wire / in BAT queues."""
        return self.size + header_size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BAT {self.bat_id} owner={self.owner} size={self.size} "
            f"loi={self.loi:.3f} copies={self.copies} hops={self.hops} "
            f"cycles={self.cycles} v{self.version}"
            f"{' updating' if self.updating else ''}>"
        )


class RequestMessage:
    """A BAT request travelling anti-clockwise towards the BAT's owner."""

    __slots__ = ("origin", "bat_id", "hops", "min_version")

    def __init__(self, origin: int, bat_id: int, min_version: int = 0):
        self.origin = origin
        self.bat_id = bat_id
        self.hops = 0
        # Update extension (section 6.4): a reader needing at least this
        # version; 0 accepts any.
        self.min_version = min_version

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Request bat={self.bat_id} origin={self.origin} hops={self.hops}>"


class HeartbeatMessage:
    """A liveness beacon piggybacked on the anti-clockwise request channel.

    Beyond the paper (docs/resilience.md): each node periodically sends a
    beacon to its live predecessor, which monitors the inter-arrival gaps
    of *any* traffic from its successor (beacons and forwarded requests
    alike) with a phi-accrual suspicion score.  The ``sender`` field lets
    the monitor discard beacons that were in flight across a topology
    change and no longer originate from the monitored successor.
    """

    __slots__ = ("sender",)

    def __init__(self, sender: int):
        self.sender = sender

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Heartbeat from={self.sender}>"
