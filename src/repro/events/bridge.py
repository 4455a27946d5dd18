"""The metrics subscriber: feeds bus events into a MetricsCollector.

The collector declares its own map from events to state -- ``COUNTS``
(event type -> counter; a new counter is one row) and ``HANDLERS``
(event type -> method taking the event) -- and this module only
subscribes it.  Event types the collector does not name
(``LinkTransmit``, ``SimEventFired``, ...) stay unsubscribed and keep
their no-subscriber fast path.  Counts an owner keeps itself (the
overload controller's tier sheds and level changes, the retrier's
budget refusals, the front door's admissions) are read from that owner.
The golden test (tests/test_events_golden.py) pins the collector state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.events.bus import Bus, Counter

if TYPE_CHECKING:  # pragma: no cover
    from repro.metrics.collector import MetricsCollector

__all__ = ["attach_metrics"]


def attach_metrics(bus: Bus, metrics: "MetricsCollector") -> Callable[[], None]:
    """Subscribe ``metrics`` to every event it declares.

    Returns a detach callable that removes every subscription made here
    -- the way to run a simulation with zero observers (perf baselines).
    """
    subscribed = [
        (event_type, Counter(metrics, attr).bump)
        for event_type, attr in metrics.COUNTS.items()
    ] + [
        (event_type, getattr(metrics, name))
        for event_type, name in metrics.HANDLERS.items()
    ]
    for event_type, handler in subscribed:
        bus.subscribe(event_type, handler)

    def detach():
        for event_type, handler in subscribed:
            bus.unsubscribe(event_type, handler)

    return detach
