"""Unit tests for the central metrics collector, fed through the bus."""

import pytest

from repro.events import types as ev
from repro.events.bridge import attach_metrics
from repro.events.bus import Bus
from repro.metrics.collector import MetricsCollector


@pytest.fixture
def bus():
    return Bus()


@pytest.fixture
def m(bus):
    metrics = MetricsCollector()
    attach_metrics(bus, metrics)
    return metrics


def test_query_lifecycle(m, bus):
    bus.publish(ev.QueryRegistered(1.0, 1, node=0, tag="a"))
    bus.publish(ev.QueryFinished(3.5, 1, 0))
    rec = m.queries[1]
    assert rec.lifetime == pytest.approx(2.5)
    assert not rec.failed
    assert m.finished_count() == 1
    assert m.all_finished()


def test_query_failure(m, bus):
    bus.publish(ev.QueryRegistered(0.0, 1, node=0))
    bus.publish(ev.QueryFailed(1.0, 1, "BAT does not exist", 0))
    rec = m.queries[1]
    assert rec.failed and rec.error == "BAT does not exist"
    # failed queries do not count as finished work
    assert m.finished_count() == 0
    assert m.lifetimes() == []
    assert m.all_finished()  # but they are no longer pending


def test_lifetime_filters_by_tag(m, bus):
    bus.publish(ev.QueryRegistered(0.0, 1, 0, tag="x"))
    bus.publish(ev.QueryRegistered(0.0, 2, 0, tag="y"))
    bus.publish(ev.QueryFinished(1.0, 1, 0))
    bus.publish(ev.QueryFinished(2.0, 2, 0))
    assert m.lifetimes(tag="x") == [1.0]
    assert m.finished_count(tag="y") == 1
    assert m.finished_count() == 2


def test_ring_load_tracking(m, bus):
    bus.publish(ev.BatLoaded(1.0, 5, size=100, node=0))
    bus.publish(ev.BatLoaded(2.0, 6, size=50, node=0))
    bus.publish(ev.BatUnloaded(3.0, 5, size=100, node=0))
    assert m.ring_bytes.current == 50
    assert m.ring_bats.current == 1
    assert m.bats[5].loads == 1 and m.bats[5].unloads == 1


def test_tagged_ring_load(m, bus):
    bus.publish(ev.BatTagged(0.0, 5, "dh1"))
    bus.publish(ev.BatLoaded(1.0, 5, size=100, node=0))
    bus.publish(ev.BatLoaded(1.0, 6, size=70, node=0))  # untagged
    assert m.ring_bytes_by_tag["dh1"].current == 100
    assert m.ring_bytes.current == 170


def test_drop_accounting(m, bus):
    bus.publish(ev.BatLoaded(1.0, 5, size=100, node=0))
    bus.publish(ev.BatDropped(2.0, 5, size=100, by_loss=False, node=0))
    assert m.droptail_drops == 1 and m.loss_drops == 0
    assert m.ring_bytes.current == 0
    bus.publish(ev.BatLoaded(3.0, 5, size=100, node=0))
    bus.publish(ev.BatDropped(4.0, 5, size=100, by_loss=True, node=0))
    assert m.loss_drops == 1
    assert m.bats[5].drops == 2


def test_touch_pin_cycle_latency(m, bus):
    bus.publish(ev.BatTouched(1.0, 5, 0))
    bus.publish(ev.BatPinned(1.0, 5, 0, count=3))
    bus.publish(ev.BatCycled(2.0, 5, cycles=4, node=0))
    # a lower cycle count does not regress the max
    bus.publish(ev.BatCycled(3.0, 5, cycles=2, node=0))
    bus.publish(ev.RequestCreated(0.0, 5, 0))
    bus.publish(ev.RequestServed(1.5, 5, latency=1.5, node=0))
    bus.publish(ev.RequestServed(2.5, 5, latency=0.5, node=0))
    stats = m.bats[5]
    assert stats.touches == 1
    assert stats.pins == 3
    assert stats.max_cycles == 4
    assert stats.requests == 1
    assert stats.max_request_latency == 1.5


def test_throughput_series(m, bus):
    for q, t in enumerate([0.5, 1.5, 1.6]):
        bus.publish(ev.QueryRegistered(0.0, q, 0))
        bus.publish(ev.QueryFinished(t, q, 0))
    times, counts = m.throughput_series(end=2.0, step=1.0)
    assert counts == [0, 1, 3]


def test_registered_series(m, bus):
    bus.publish(ev.QueryRegistered(0.2, 1, 0))
    bus.publish(ev.QueryRegistered(1.2, 2, 0))
    _, counts = m.registered_series(end=2.0, step=1.0)
    assert counts == [0, 1, 2]


def test_lifetime_histogram(m, bus):
    bus.publish(ev.QueryRegistered(0.0, 1, 0))
    bus.publish(ev.QueryFinished(2.0, 1, 0))
    hist = m.lifetime_histogram(bin_width=1.0)
    assert hist.count == 1
    assert hist.mean == 2.0
