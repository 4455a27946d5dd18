"""A tiny synchronous typed event bus.

Components *publish* event dataclasses (see :mod:`repro.events.types`)
and observers *subscribe* per event type -- or to the wildcard channel,
which sees everything.  Delivery is synchronous and in subscription
order: a publish returns only after every handler ran, which keeps the
simulation deterministic (subscribers run between simulator events, at
a consistent point of the protocol state machine).

Performance contract: publishing to an event type nobody subscribed to
is a single dict probe, and producers can skip building the event object
entirely by guarding with :meth:`Bus.wants` -- the pattern the network
and engine layers use for their high-frequency events.  A subscriber
that only counts its events says so by subscribing a :class:`Counter`'s
``bump``; where every subscriber of a type is one (:meth:`Bus.counters`),
a producer holding a run of ``n`` such events adds ``n`` in one step
instead of building ``n`` objects.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Type

__all__ = ["Bus", "Counter"]

Handler = Callable[[Any], None]

_NO_HANDLERS: tuple = ()


class Counter:
    """A subscriber that never looks at its events: each one adds 1 to
    ``target.<attr>``.  Subscribe ``counter.bump``; a producer handed
    the counter by :meth:`Bus.counters` may add a whole run at once."""

    __slots__ = ("target", "attr")

    def __init__(self, target: Any, attr: str):
        self.target = target
        self.attr = attr

    def bump(self, _event: Any) -> None:
        target = self.target
        setattr(target, self.attr, getattr(target, self.attr) + 1)

    def add(self, count: int) -> None:
        target = self.target
        setattr(target, self.attr, getattr(target, self.attr) + count)


class Bus:
    """Publish/subscribe dispatch keyed on the event's concrete type.

    ``version`` increments on every (un)subscription.  Hot-path
    producers cache a ``wants()`` verdict against it and re-check only
    when the version moved, turning the per-event guard into one integer
    compare.  ``active`` is True while *any* handler is subscribed;
    producers guard publishes with it so a zero-observer simulation
    skips even constructing the event objects.
    """

    __slots__ = ("_subs", "_wildcard", "version", "active")

    def __init__(self) -> None:
        self._subs: Dict[Type, List[Handler]] = {}
        self._wildcard: List[Handler] = []
        self.version = 0
        self.active = False

    # ------------------------------------------------------------------
    # subscription management
    # ------------------------------------------------------------------
    def subscribe(self, event_type: Type, handler: Handler) -> Handler:
        """Invoke ``handler(event)`` for every published ``event_type``.

        Returns the handler so decorator-style use works too.
        """
        if not isinstance(event_type, type):
            raise TypeError(f"event_type must be a class, got {event_type!r}")
        self._subs.setdefault(event_type, []).append(handler)
        self.version += 1
        self.active = True
        return handler

    def subscribe_many(self, event_types, handler: Handler) -> Handler:
        """Subscribe one handler to several event types at once."""
        for event_type in event_types:
            self.subscribe(event_type, handler)
        return handler

    def subscribe_all(self, handler: Handler) -> Handler:
        """Wildcard subscription: ``handler`` sees every published event."""
        self._wildcard.append(handler)
        self.version += 1
        self.active = True
        return handler

    def unsubscribe(self, event_type: Type, handler: Handler) -> None:
        """Remove a per-type subscription (no-op if absent)."""
        handlers = self._subs.get(event_type)
        if handlers is None:
            return
        try:
            handlers.remove(handler)
        except ValueError:
            return
        if not handlers:
            del self._subs[event_type]
        self.version += 1
        self.active = bool(self._subs) or bool(self._wildcard)

    def unsubscribe_all(self, handler: Handler) -> None:
        """Remove a wildcard subscription (no-op if absent)."""
        try:
            self._wildcard.remove(handler)
        except ValueError:
            return
        self.version += 1
        self.active = bool(self._subs) or bool(self._wildcard)

    # ------------------------------------------------------------------
    # publishing
    # ------------------------------------------------------------------
    def wants(self, event_type: Type) -> bool:
        """True if publishing ``event_type`` would reach any handler.

        Producers of high-frequency events guard on this to skip even
        constructing the event object when nobody is listening.
        """
        return bool(self._wildcard) or event_type in self._subs

    def counters(self, event_type: Type) -> Optional[List[Counter]]:
        """The :class:`Counter` of every subscriber of ``event_type`` --
        empty when nobody listens -- or None if any handler (a wildcard
        included) looks at the event.  Producers cache it on ``version``."""
        if self._wildcard:
            return None
        out = []
        for handler in self._subs.get(event_type, _NO_HANDLERS):
            if getattr(handler, "__func__", None) is not Counter.bump:
                return None
            out.append(handler.__self__)
        return out

    def publish(self, event: Any) -> None:
        """Deliver ``event`` to its type's subscribers, then wildcards."""
        for handler in self._subs.get(type(event), _NO_HANDLERS):
            handler(event)
        if self._wildcard:
            for handler in self._wildcard:
                handler(event)

    # ------------------------------------------------------------------
    @property
    def subscription_count(self) -> int:
        """Total live subscriptions (typed + wildcard) -- introspection."""
        return sum(len(v) for v in self._subs.values()) + len(self._wildcard)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Bus {len(self._subs)} typed channels, "
            f"{len(self._wildcard)} wildcard subscribers>"
        )
