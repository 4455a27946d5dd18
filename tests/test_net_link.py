"""Unit tests for the simplex link model."""

import pytest

from repro.net.link import GBIT, Link
from repro.sim.engine import Simulator


def make_link(**kwargs):
    sim = Simulator()
    received = []
    link = Link(sim, on_receive=lambda m, s: received.append((sim.now, m, s)), **kwargs)
    return sim, link, received


def test_transfer_time_is_serialisation_plus_delay():
    sim, link, received = make_link(bandwidth=1e6, delay=0.5)
    link.send("msg", 1_000_000)  # 1 second of serialisation
    sim.run()
    assert received == [(1.5, "msg", 1_000_000)]


def test_paper_parameters():
    """A 5 MB BAT over 10 Gb/s with 350 us delay: 4 ms + 0.35 ms."""
    sim, link, received = make_link(bandwidth=10 * GBIT, delay=350e-6)
    link.send("bat", 5_000_000)
    sim.run()
    assert received[0][0] == pytest.approx(5_000_000 / (10 * GBIT) + 350e-6)


def test_messages_deliver_in_fifo_order():
    sim, link, received = make_link(bandwidth=1e6, delay=0.1)
    for i in range(5):
        link.send(i, 100_000)
    sim.run()
    assert [m for _, m, _ in received] == [0, 1, 2, 3, 4]


def test_serialisation_pipelines_with_propagation():
    """The wire frees for message 2 while message 1 still propagates."""
    sim, link, received = make_link(bandwidth=1e6, delay=10.0)
    link.send("a", 1_000_000)  # serialises [0,1), arrives 11
    link.send("b", 1_000_000)  # serialises [1,2), arrives 12
    sim.run()
    assert received[0][0] == pytest.approx(11.0)
    assert received[1][0] == pytest.approx(12.0)


def test_droptail_rejects_overflow():
    sim, link, received = make_link(bandwidth=1.0, delay=0.0, queue_capacity=100)
    dropped = []
    link.on_drop = lambda m, s: dropped.append(m)
    assert link.send("fits", 60)
    assert link.send("fits2", 40)  # queue now at 40 (60 is on the wire)
    # 40 queued + 80 > 100 -> dropped
    assert not link.send("too-big", 80)
    assert dropped == ["too-big"]
    assert link.stats.messages_dropped == 1
    assert link.stats.bytes_dropped == 80


def test_queue_drains_and_accepts_again():
    sim, link, received = make_link(bandwidth=100.0, delay=0.0, queue_capacity=100)
    link.send("a", 100)
    sim.run()
    assert link.send("b", 100)
    sim.run()
    assert len(received) == 2


def test_queued_bytes_tracks_waiting_only():
    sim, link, _ = make_link(bandwidth=1.0, delay=0.0)
    link.send("a", 10)  # immediately starts serialising
    assert link.queued_bytes == 0
    link.send("b", 20)
    assert link.queued_bytes == 20
    sim.run()
    assert link.queued_bytes == 0


def test_stats_accumulate():
    sim, link, _ = make_link(bandwidth=1e6, delay=0.0)
    link.send("a", 500_000)
    link.send("b", 500_000)
    sim.run()
    assert link.stats.messages_sent == 2
    assert link.stats.bytes_sent == 1_000_000
    assert link.stats.messages_delivered == 2
    assert link.busy_time == pytest.approx(1.0)


def test_busy_time_is_bytes_over_bandwidth_per_bandwidth_epoch():
    # derived, not accumulated: one division per epoch, so the value
    # cannot depend on the order the messages were accounted in
    sim, link, _ = make_link(bandwidth=1e6, delay=0.0)
    for size in (300_000, 100_000, 200_000):
        link.send("x", size)
    sim.run()
    assert link.busy_time == 600_000 / 1e6
    link.set_bandwidth(4e6)  # a degrade/restore closes the epoch
    assert link.busy_time == 600_000 / 1e6
    link.send("y", 1_000_000)
    sim.run()
    assert link.busy_time == 600_000 / 1e6 + 1_000_000 / 4e6
    with pytest.raises(ValueError):
        link.set_bandwidth(0.0)


def test_zero_size_message():
    sim, link, received = make_link(bandwidth=1e6, delay=0.25)
    link.send("ping", 0)
    sim.run()
    assert received == [(0.25, "ping", 0)]


def test_invalid_parameters():
    sim = Simulator()
    with pytest.raises(ValueError):
        Link(sim, bandwidth=0)
    with pytest.raises(ValueError):
        Link(sim, delay=-1)
    link = Link(sim)
    with pytest.raises(ValueError):
        link.send("x", -5)


def test_max_queue_high_water_mark():
    sim, link, _ = make_link(bandwidth=1.0, delay=0.0)
    link.send("a", 10)
    link.send("b", 30)
    link.send("c", 20)
    assert link.stats.max_queue_bytes == 50
