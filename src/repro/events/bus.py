"""A tiny synchronous typed event bus.

Components *publish* event dataclasses (see :mod:`repro.events.types`)
and observers *subscribe* per event type -- or to the wildcard channel,
which sees everything.  Delivery is synchronous and in subscription
order: a publish returns only after every handler ran, which keeps the
simulation deterministic (subscribers run between simulator events, at
a consistent point of the protocol state machine).

Performance contract: publishing to an event type nobody subscribed to
is a single dict probe, and producers skip building the event object
entirely when nobody listens.  Two guard idioms do that:

* ``bus.active`` is True while any handler (typed or wildcard) is
  subscribed; protocol code guards each publish with it.
* A high-frequency producer takes its event type's :class:`Topic`
  once, at construction (``bus.topic(EventType)``), and guards with
  ``topic.wanted`` -- one attribute load per event.  The bus keeps
  every topic it handed out current on each (un)subscription, wildcards
  included.

A subscriber that only counts its events says so by subscribing a
:class:`Counter`'s ``bump``; where every subscriber of a type is one
(``topic.counters``), a producer holding a run of ``n`` such events
adds ``n`` in one step instead of building ``n`` objects.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Type

__all__ = ["Bus", "Counter", "Topic", "NEVER_WANTED", "topic_on"]

Handler = Callable[[Any], None]

_NO_HANDLERS: tuple = ()


class Counter:
    """A subscriber that never looks at its events: each one adds 1 to
    ``target.<attr>``.  Subscribe ``counter.bump``; a producer handed
    the counter by ``topic.counters`` may add a whole run at once."""

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


class Topic:
    """Who listens to one event type on one bus, kept current by the bus.

    ``wanted`` is True while publishing ``event_type`` would reach a
    handler.  ``counters`` is the :class:`Counter` of every subscriber
    of the type -- empty when nobody listens -- or None if any handler
    (a wildcard included) looks at the event.
    """

    __slots__ = ("event_type", "wanted", "counters")

    def __init__(self, event_type: Optional[Type]):
        self.event_type = event_type
        self.wanted = False
        self.counters: Optional[List[Counter]] = []


# what a producer without a bus holds: no bus ever updates it
NEVER_WANTED = Topic(None)


class Bus:
    """Publish/subscribe dispatch keyed on the event's concrete type.

    ``active`` is True while *any* handler is subscribed; producers
    guard publishes with it so a zero-observer simulation skips even
    constructing the event objects.  :meth:`topic` answers the same
    question per event type, as a live object a hot path holds.
    """

    __slots__ = ("_subs", "_wildcard", "_topics", "active")

    def __init__(self) -> None:
        self._subs: Dict[Type, List[Handler]] = {}
        self._wildcard: List[Handler] = []
        self._topics: Dict[Type, Topic] = {}
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
        self._changed(event_type)
        return handler

    def subscribe_many(self, event_types, handler: Handler) -> Handler:
        """Subscribe one handler to several event types at once."""
        for event_type in event_types:
            self.subscribe(event_type, handler)
        return handler

    def subscribe_all(self, handler: Handler) -> Handler:
        """Wildcard subscription: ``handler`` sees every published event."""
        self._wildcard.append(handler)
        self._changed(None)
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
        self._changed(event_type)

    def unsubscribe_all(self, handler: Handler) -> None:
        """Remove a wildcard subscription (no-op if absent)."""
        try:
            self._wildcard.remove(handler)
        except ValueError:
            return
        self._changed(None)

    def _changed(self, event_type: Optional[Type]) -> None:
        """Bring ``active`` and the affected topics (every topic for a
        wildcard change) up to date."""
        self.active = bool(self._subs) or bool(self._wildcard)
        if event_type is None:
            for topic in self._topics.values():
                self._refresh(topic)
        else:
            topic = self._topics.get(event_type)
            if topic is not None:
                self._refresh(topic)

    def _refresh(self, topic: Topic) -> None:
        handlers = self._subs.get(topic.event_type, _NO_HANDLERS)
        topic.wanted = bool(self._wildcard) or bool(handlers)
        counters: Optional[List[Counter]] = None
        if not self._wildcard:
            counters = []
            for handler in handlers:
                if getattr(handler, "__func__", None) is not Counter.bump:
                    counters = None
                    break
                counters.append(handler.__self__)
        topic.counters = counters

    # ------------------------------------------------------------------
    # publishing
    # ------------------------------------------------------------------
    def topic(self, event_type: Type) -> Topic:
        """The one live :class:`Topic` of ``event_type`` on this bus."""
        topic = self._topics.get(event_type)
        if topic is None:
            topic = self._topics[event_type] = Topic(event_type)
            self._refresh(topic)
        return topic

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


def topic_on(bus: Optional[Bus], event_type: Type) -> Topic:
    """``bus.topic(event_type)``, or :data:`NEVER_WANTED` without a bus."""
    return NEVER_WANTED if bus is None else bus.topic(event_type)
