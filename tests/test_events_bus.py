"""Unit tests for the typed event bus."""

import pytest

from repro.events import types as ev
from repro.events.bus import Bus, Counter


def _loaded(t=1.0, bat_id=7, size=100, node=0):
    return ev.BatLoaded(t, bat_id, size, node)


def test_publish_reaches_typed_subscriber():
    bus = Bus()
    seen = []
    bus.subscribe(ev.BatLoaded, seen.append)
    event = _loaded()
    bus.publish(event)
    assert seen == [event]


def test_publish_other_type_is_not_delivered():
    bus = Bus()
    seen = []
    bus.subscribe(ev.BatLoaded, seen.append)
    bus.publish(ev.BatDropped(1.0, 7, 100, False, 0))
    assert seen == []


def test_subscribe_returns_the_handler():
    bus = Bus()
    seen = []

    def handler(event):
        seen.append(event.bat_id)

    assert bus.subscribe(ev.BatLoaded, handler) is handler
    bus.publish(_loaded(bat_id=3))
    assert seen == [3]


def test_handlers_run_in_subscription_order():
    bus = Bus()
    order = []
    bus.subscribe(ev.BatLoaded, lambda e: order.append("first"))
    bus.subscribe(ev.BatLoaded, lambda e: order.append("second"))
    bus.subscribe_all(lambda e: order.append("wildcard"))
    bus.publish(_loaded())
    assert order == ["first", "second", "wildcard"]


def test_wildcard_sees_every_type():
    bus = Bus()
    seen = []
    bus.subscribe_all(lambda e: seen.append(type(e).__name__))
    bus.publish(_loaded())
    bus.publish(ev.NodeCrashed(2.0, 1))
    assert seen == ["BatLoaded", "NodeCrashed"]


def test_subscribe_many():
    bus = Bus()
    seen = []
    bus.subscribe_many((ev.NodeCrashed, ev.NodeRejoined), seen.append)
    bus.publish(ev.NodeCrashed(1.0, 2))
    bus.publish(ev.NodeRejoined(2.0, 2, (7,)))
    assert [type(e).__name__ for e in seen] == ["NodeCrashed", "NodeRejoined"]


def test_unsubscribe_stops_delivery():
    bus = Bus()
    seen = []
    handler = bus.subscribe(ev.BatLoaded, seen.append)
    bus.unsubscribe(ev.BatLoaded, handler)
    bus.publish(_loaded())
    assert seen == []
    # idempotent, and unknown types are fine
    bus.unsubscribe(ev.BatLoaded, handler)
    bus.unsubscribe(ev.NodeCrashed, handler)


def test_unsubscribe_all_stops_wildcard():
    bus = Bus()
    seen = []
    handler = bus.subscribe_all(seen.append)
    bus.unsubscribe_all(handler)
    bus.unsubscribe_all(handler)  # idempotent
    bus.publish(_loaded())
    assert seen == []


def test_wants_tracks_subscriptions():
    bus = Bus()
    assert not bus.wants(ev.LinkTransmit)
    handler = bus.subscribe(ev.LinkTransmit, lambda e: None)
    assert bus.wants(ev.LinkTransmit)
    assert not bus.wants(ev.BatLoaded)
    bus.unsubscribe(ev.LinkTransmit, handler)
    assert not bus.wants(ev.LinkTransmit)


def test_wants_is_true_for_everything_with_a_wildcard():
    bus = Bus()
    handler = bus.subscribe_all(lambda e: None)
    assert bus.wants(ev.LinkTransmit)
    assert bus.wants(ev.SimEventFired)
    bus.unsubscribe_all(handler)
    assert not bus.wants(ev.LinkTransmit)


def test_subscription_count():
    bus = Bus()
    assert bus.subscription_count == 0
    bus.subscribe(ev.BatLoaded, lambda e: None)
    bus.subscribe(ev.BatLoaded, lambda e: None)
    bus.subscribe_all(lambda e: None)
    assert bus.subscription_count == 3


def test_subscribe_rejects_instances():
    bus = Bus()
    with pytest.raises(TypeError):
        bus.subscribe(_loaded(), lambda e: None)


def test_active_tracks_subscriptions():
    bus = Bus()
    assert not bus.active
    handler = bus.subscribe(ev.BatLoaded, lambda e: None)
    assert bus.active
    bus.unsubscribe(ev.BatLoaded, handler)
    assert not bus.active
    wildcard = bus.subscribe_all(lambda e: None)
    assert bus.active
    bus.unsubscribe_all(wildcard)
    assert not bus.active


def test_version_moves_on_every_subscription_change():
    bus = Bus()
    v0 = bus.version
    handler = bus.subscribe(ev.BatLoaded, lambda e: None)
    assert bus.version > v0
    v1 = bus.version
    bus.unsubscribe(ev.BatLoaded, handler)
    assert bus.version > v1
    # removing an unknown handler is a no-op and must not invalidate
    # producer-side caches
    v2 = bus.version
    bus.unsubscribe(ev.BatLoaded, lambda e: None)
    bus.unsubscribe_all(lambda e: None)
    assert bus.version == v2


def test_counters_are_handed_out_only_when_nobody_looks():
    class Tally:
        loads = 0

    bus = Bus()
    tally = Tally()
    assert bus.counters(ev.BatLoaded) == []  # nobody listens
    counter = Counter(tally, "loads")
    bus.subscribe(ev.BatLoaded, counter.bump)
    assert bus.counters(ev.BatLoaded) == [counter]
    bus.publish(_loaded())
    counter.add(4)
    assert tally.loads == 5
    # a handler that looks at the event, or a wildcard, takes them away
    seen = bus.subscribe(ev.BatLoaded, lambda e: None)
    assert bus.counters(ev.BatLoaded) is None
    bus.unsubscribe(ev.BatLoaded, seen)
    bus.subscribe_all(lambda e: None)
    assert bus.counters(ev.BatLoaded) is None
    assert bus.counters(ev.BatDropped) is None
    # the bound method unsubscribes like any handler
    bus.unsubscribe(ev.BatLoaded, counter.bump)
    assert ev.BatLoaded not in bus._subs


def test_event_types_are_slotted_value_objects():
    # Not frozen (construction cost on the hot path), but slotted --
    # no stray attributes -- and compared by value.
    event = _loaded()
    with pytest.raises(AttributeError):
        event.not_a_field = 99
    assert not hasattr(event, "__dict__")
    assert _loaded() == _loaded()
