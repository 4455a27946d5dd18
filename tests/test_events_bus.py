"""Unit tests for the typed event bus."""

import pytest

from repro.core import MB, DataCyclotron, DataCyclotronConfig
from repro.core.query import QuerySpec
from repro.events import types as ev
from repro.events.bus import Bus, Counter
from repro.net.link import Link


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
    assert not bus.topic(ev.LinkTransmit).wanted
    handler = bus.subscribe(ev.LinkTransmit, lambda e: None)
    assert bus.topic(ev.LinkTransmit).wanted
    assert not bus.topic(ev.BatLoaded).wanted
    bus.unsubscribe(ev.LinkTransmit, handler)
    assert not bus.topic(ev.LinkTransmit).wanted


def test_wants_is_true_for_everything_with_a_wildcard():
    bus = Bus()
    handler = bus.subscribe_all(lambda e: None)
    assert bus.topic(ev.LinkTransmit).wanted
    assert bus.topic(ev.SimEventFired).wanted
    bus.unsubscribe_all(handler)
    assert not bus.topic(ev.LinkTransmit).wanted


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


def test_a_topic_taken_early_follows_its_subscriptions():
    bus = Bus()
    topic = bus.topic(ev.LinkTransmit)
    assert bus.topic(ev.LinkTransmit) is topic  # one object per type
    assert not topic.wanted
    first = bus.subscribe(ev.LinkTransmit, lambda e: None)
    assert topic.wanted
    second = bus.subscribe(ev.LinkTransmit, lambda e: None)
    bus.unsubscribe(ev.LinkTransmit, first)
    assert topic.wanted
    bus.unsubscribe(ev.LinkTransmit, second)
    assert not topic.wanted
    # another type's subscription leaves it alone
    bus.subscribe(ev.BatLoaded, lambda e: None)
    assert not topic.wanted


def test_a_wildcard_makes_every_topic_wanted():
    bus = Bus()
    before = bus.topic(ev.LinkTransmit)
    handler = bus.subscribe_all(lambda e: None)
    after = bus.topic(ev.SimEventFired)
    assert before.wanted and after.wanted
    bus.unsubscribe_all(handler)
    assert not before.wanted and not after.wanted


def test_topic_counters_are_handed_out_only_when_nobody_looks():
    class Tally:
        loads = 0

    bus = Bus()
    tally = Tally()
    topic = bus.topic(ev.BatLoaded)
    assert topic.counters == []  # nobody listens
    counter = Counter(tally, "loads")
    bus.subscribe(ev.BatLoaded, counter.bump)
    assert topic.counters == [counter]
    bus.publish(_loaded())
    counter.add(4)
    assert tally.loads == 5
    # a handler that looks at the event, or a wildcard, takes them away
    seen = bus.subscribe(ev.BatLoaded, lambda e: None)
    assert topic.counters is None
    bus.unsubscribe(ev.BatLoaded, seen)
    assert topic.counters == [counter]
    wildcard = bus.subscribe_all(lambda e: None)
    assert topic.counters is None
    assert bus.topic(ev.BatDropped).counters is None
    bus.unsubscribe_all(wildcard)
    assert topic.counters == [counter]
    # the bound method unsubscribes like any handler
    bus.unsubscribe(ev.BatLoaded, counter.bump)
    assert ev.BatLoaded not in bus._subs
    assert topic.counters == [] and not topic.wanted


def test_removing_an_unknown_handler_changes_no_topic():
    bus = Bus()
    handler = bus.subscribe(ev.BatLoaded, Counter(object(), "x").bump)
    topic = bus.topic(ev.BatLoaded)
    counters = topic.counters
    bus.unsubscribe(ev.BatLoaded, lambda e: None)
    bus.unsubscribe(ev.NodeCrashed, handler)
    bus.unsubscribe_all(handler)
    assert topic.wanted and topic.counters is counters
    assert bus.active


def test_a_link_subscription_made_mid_run_is_seen_at_once(monkeypatch):
    # subscribed from a scheduled callback, a LinkTransmit observer
    # sees every transmit a link starts from the very next one on, and
    # no flight launches after it joined
    dc = DataCyclotron(DataCyclotronConfig(n_nodes=16, seed=1))
    dc.detach_metrics()
    for bat_id in range(4):
        dc.add_bat(bat_id, MB)
    for q in range(6):
        dc.submit(QuerySpec.simple(q + 1, q, 0.5 * q, [0], [0.002]))
    seen, starts, joined = [], [], {}
    start = Link._start

    def counted_start(link, message, size):
        if joined:
            starts.append((dc.sim.now, link.name))
        start(link, message, size)

    def join():
        joined["flights"] = dc.ff.flights
        dc.bus.subscribe(ev.LinkTransmit, seen.append)

    monkeypatch.setattr(Link, "_start", counted_start)
    dc.sim.schedule(1.2, join)
    dc.run(until=5.0)
    assert joined["flights"] > 0, "no flight before the subscription"
    assert starts, "no transmit after the subscription"
    assert [(e.t, e.link) for e in seen] == starts
    assert dc.ff.flights == joined["flights"]


def test_event_types_are_slotted_value_objects():
    # Not frozen (construction cost on the hot path), but slotted --
    # no stray attributes -- and compared by value.
    event = _loaded()
    with pytest.raises(AttributeError):
        event.not_a_field = 99
    assert not hasattr(event, "__dict__")
    assert _loaded() == _loaded()
