"""Rotation fast-forwarding: activation, flush paths, self-disable.

The equivalence suite (``test_fastforward_equivalence.py``) proves the
coalesced rotation is observationally identical to the classic one;
these tests pin the machinery itself -- when the fast path engages, what
flushes a flight back into real link state, and which conditions force
it to stand down.
"""

import pytest

from repro.core import MB, DataCyclotron, DataCyclotronConfig
from repro.core.query import QuerySpec


def sparse_ring(n_nodes=16, fast_forward=True, seed=1, observers=False,
                queries=6, **config_kwargs) -> DataCyclotron:
    """A quiet ring: one hot BAT rotating past mostly disinterested nodes."""
    dc = DataCyclotron(DataCyclotronConfig(
        n_nodes=n_nodes, seed=seed, fast_forward=fast_forward, **config_kwargs
    ))
    if not observers:
        dc.detach_metrics()
    for bat_id in range(4):
        dc.add_bat(bat_id, MB)
    for q in range(queries):
        dc.submit(QuerySpec.simple(q + 1, q % n_nodes, 0.5 * q, [0], [0.002]))
    return dc


def launch_flight(dc: DataCyclotron):
    """Step the simulation until the fast path has a flight in the air."""
    dc._start_ticks()
    for _ in range(200_000):
        if dc.ff._by_bat:
            flights = next(iter(dc.ff._by_bat.values()))
            return flights[0]
        if not dc.sim.step():
            break
    raise AssertionError("no flight launched in a sparse ring")


# ----------------------------------------------------------------------
# activation gates
# ----------------------------------------------------------------------
def test_config_flag_off_pins_classic_path():
    dc = sparse_ring(fast_forward=False)
    assert not dc.ff.active
    dc.run(until=10.0)
    assert dc.ff.stats()["flights"] == dc.ff.stats()["hops_coalesced"] == 0
    # the classic path credits no flight, only the links' serialise-ends
    # that fired unpushed (those still ahead of the engine are not yet)
    credited = dc.sim.credited
    links = [ch.link for ch in (*dc.ring.data, *dc.ring.request)]
    assert credited == sum(
        link.ends_folded - link.ends_materialised - (link._end is not None)
        for link in links
    ) > 0


def test_tiny_ring_never_fast_forwards():
    # with < 3 nodes there is no run of 2+ disinterested hops to skip
    dc = sparse_ring(n_nodes=2)
    assert not dc.ff.active


def test_sparse_ring_coalesces_rotation():
    dc = sparse_ring()
    dc.run(until=10.0)
    dc.ff.flush_all()
    stats = dc.ff.stats()
    assert stats["flights"] > 0
    assert stats["hops_coalesced"] >= 2 * stats["flights"]
    assert dc.sim.credited > 0
    # processed = dispatched + credited, by construction
    assert dc.sim.processed == dc.sim.dispatched + dc.sim.credited


def test_wildcard_observer_pins_classic_path():
    # a tracer/profiler subscribed to everything must see every per-hop
    # event in dispatch order, so no flight may launch under it
    dc = sparse_ring(observers=True)
    dc.bus.subscribe_all(lambda event: None)
    dc.run(until=5.0)
    assert dc.ff.stats()["flights"] == 0


# ----------------------------------------------------------------------
# flush paths
# ----------------------------------------------------------------------
def test_summary_lands_open_flights():
    dc = sparse_ring(observers=True)
    launch_flight(dc)
    assert dc.ff._by_bat
    dc.summary()
    assert not dc.ff._by_bat


def test_flush_bat_rematerialises_the_flight():
    dc = sparse_ring()
    flight = launch_flight(dc)
    before = dc.ff.flushes
    dc.ff.flush_bat(flight.bat_id)
    assert not dc.ff._by_bat
    assert dc.ff.flushes == before + 1
    # the re-materialised hops finish the journey on the classic path
    assert dc.run_until_done(max_time=120.0)


def test_passed_hop_release_keeps_the_flight_alive():
    dc = sparse_ring()
    flight = launch_flight(dc)
    first_link = flight.hop(0)[0]
    # a flight that runs through its owner crosses the link once per
    # rotation: the reservation lapses with the last crossing
    n = len(dc.nodes)
    left = flight.arrivals[(len(flight.arrivals) - 1) // n * n]
    last_arrival = flight.arrivals[-1]
    assert first_link.lane.holder(first_link) is flight

    checked = []

    def probe():
        # the message analytically left the first hop's link for the last
        # time, but the flight is still in the air: a competing send on
        # that link must release the lapsed reservation instead of
        # flushing the whole flight
        assert dc.sim.now > left
        assert flight.hop_of_link(first_link) is None
        flight.touch(first_link)
        checked.append(first_link.lane.holder(first_link) is None)
        checked.append(flight in dc.ff._by_bat.get(flight.bat_id, []))

    mid = (left + last_arrival) / 2
    assert mid > dc.sim.now
    flushes_before = dc.ff.flushes
    dc.sim.schedule_at(mid, probe)
    dc.sim.run(until=mid)
    assert checked == [True, True]
    assert dc.ff.flushes == flushes_before  # released, never flushed
    assert dc.run_until_done(max_time=120.0)


def test_touch_on_future_hop_tolerates_non_overlapping_sends():
    dc = sparse_ring()
    flight = launch_flight(dc)
    last_link = flight.hop(len(flight.arrivals) - 1)[0]
    # the link's next crossing: a flight that runs through its owner
    # crosses it once per rotation
    last_enqueue = flight.hop(flight.hop_of_link(last_link))[1]
    before = dc.ff.flushes
    # the message has not reached the final reserved hop, and a small
    # competing transmission drains before it analytically would: the
    # reservation holds and the flight keeps flying
    small = int(last_link.bandwidth * (last_enqueue - dc.sim.now) / 2)
    flight.touch(last_link, small)
    assert dc.ff.flushes == before
    assert last_link.lane.holder(last_link) is flight
    assert dc.run_until_done(max_time=120.0)


def test_touch_on_future_hop_flushes_on_overlap():
    dc = sparse_ring()
    flight = launch_flight(dc)
    last_link, last_enqueue = flight.hop(len(flight.arrivals) - 1)[:2]
    before = dc.ff.flushes
    # a competing send still serialising at the flight's analytic
    # enqueue invalidates the precomputed hop times: flush
    overlap = int(last_link.bandwidth * (last_enqueue - dc.sim.now)) * 2 + 1
    flight.touch(last_link, overlap)
    assert dc.ff.flushes == before + 1
    assert not dc.ff._by_bat
    assert dc.run_until_done(max_time=120.0)


def test_invalid_send_on_a_reserved_link_leaves_the_flight_in_the_air():
    dc = sparse_ring()
    flight = launch_flight(dc)
    link, enqueue, _tx, s_end, _arrival = flight.hop(2)
    # the message is serialising onto the link: any real send would
    # flush the flight, but a malformed one is refused before that
    dc.sim.run(until=(enqueue + s_end) / 2)
    before = dc.ff.flushes
    with pytest.raises(ValueError):
        link.send(object(), -1)
    assert dc.ff.flushes == before
    assert flight in dc.ff._by_bat[flight.bat_id]
    assert link.lane.holder(link) is flight
    assert dc.run_until_done(max_time=120.0)


# ----------------------------------------------------------------------
# self-disable under faults and resilience
# ----------------------------------------------------------------------
def test_crash_disables_the_fast_path():
    dc = sparse_ring()
    dc.run(until=2.0)
    assert dc.ff.active
    dc.crash_node(3)
    assert not dc.ff.active
    assert not dc.ff._by_bat  # disable() flushed everything first


def test_degraded_link_disables_the_fast_path():
    dc = sparse_ring()
    dc.run(until=2.0)
    dc.degrade_link(2, "data", loss_rate=0.5)
    assert not dc.ff.active


def test_resilience_disables_request_coalescing_only():
    dc = sparse_ring(observers=True, resilience=True)
    assert dc.ff.active
    # liveness monitors count raw request arrivals per hop; coalescing
    # them would starve the detector, so only BAT flights stay eligible
    assert not dc.ff.request_enabled
