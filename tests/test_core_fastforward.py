"""Rotation fast-forwarding: activation, flush paths, self-disable.

The equivalence suites (``test_fastforward_equivalence.py``,
``test_differential.py``) prove the coalesced rotation is
observationally identical to the classic one; these tests pin the
machinery itself -- when the fast path engages, what flushes a flight
back into real link state, which conditions force it to stand down, the
tie rule a scan applies at a reservation, and the structures the scans
read.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MB, DataCyclotron, DataCyclotronConfig
from repro.core.messages import BATMessage
from repro.core.query import QuerySpec
from repro.faults.invariants import check_stop_index


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


def test_lanes_hold_live_objects_by_reference():
    # the lanes index the ring's links for the life of the deployment and
    # the scans read the ring's one stop index: a crash may empty a
    # node's part of it, nothing is ever rebound
    dc = DataCyclotron(DataCyclotronConfig(n_nodes=7, requests_clockwise=False))
    for bat_id in range(4):
        dc.add_bat(bat_id, MB)
    for q in range(12):
        dc.submit(QuerySpec.simple(q, q % 7, 0.3 * q, [q % 2], [0.002]))
    assert dc.run_until_done(max_time=120.0)
    assert dc.ff.stats()["flights"] > 0
    dc.crash_node(3)
    n = 7
    for lane, channels, step in (
        (dc.ff.data_lane, dc.ring.data, 1), (dc.ff.request_lane, dc.ring.request, -1),
    ):
        assert lane.step == step and lane.n == n
        assert [ch.link for ch in channels] == lane.links
        assert len(lane.travel) == 2 * n and lane.travel[:n] == lane.travel[n:]
        for j, link in enumerate(lane.travel[:n]):
            pos = (j * step) % n
            assert link is channels[pos].link and link.ring_pos == pos
            assert link.lane is lane and link.lane_bit == 1 << pos | 1 << pos + n
    assert dc.ff._requested is dc.index.requested
    assert dc.ff._owned is dc.index.owned
    for node in dc.nodes:
        assert node.s2._interest is dc.index.requested
        assert node.s1._index is dc.index
    assert check_stop_index(dc) == []


def test_a_lapsed_reservation_follows_the_classic_tie_rule():
    """A scan reaching a reserved link at *exactly* the holder's
    serialise-end there: the wire is free only if the running event was
    scheduled after the holder enqueued on it (the classic serialise-end,
    scheduled at the enqueue, dispatches before a later-scheduled event
    at the same instant and after an earlier-scheduled one)."""
    outcomes = []
    for scheduled in ("before the launch", "at the launch, first", "after the launch"):
        dc = DataCyclotron(DataCyclotronConfig(n_nodes=12))
        dc.detach_metrics()
        ff = dc.ff
        ff.min_flight = 2
        wire = MB
        first = BATMessage(owner=0, bat_id=1, size=wire, loi=1.0)
        second = BATMessage(owner=0, bat_id=2, size=wire, loi=1.0)
        link = dc.ring.data[4].link
        s_end = 1.0 + wire / link.bandwidth

        def chase():
            # out of node 3: link 3 is free, link 4 is where the first
            # flight's serialisation ends at this very instant, link 5 it
            # has not reached
            assert dc.sim.now == s_end
            released = ff.released
            launched = ff.send_bat(dc.nodes[3], second, wire)
            outcomes.append(
                (launched, ff.data_lane.holder(link).bat_id, ff.released - released)
            )

        if scheduled == "before the launch":
            dc.sim.schedule_at(s_end, chase)
        elif scheduled == "at the launch, first":
            # scheduled at the enqueue instant by an event that runs
            # before the launch: classically ahead of the serialise-end
            dc.sim.schedule_at(1.0, lambda: dc.sim.schedule_at(s_end, chase))
        dc.sim.schedule_at(1.0, lambda: ff.send_bat(dc.nodes[4], first, wire))
        dc.sim.run(until=(1.0 + s_end) / 2)
        assert ff.data_lane.holder(link).bat_id == 1
        if scheduled == "after the launch":
            dc.sim.schedule_at(s_end, chase)
        dc.sim.run(until=s_end)
    # scheduled no later than the enqueue, the chaser dispatches before
    # the serialise-end would have and finds the wire taken: one free hop
    # is no flight.  Scheduled after, the first flight's reservation of
    # link 4 has lapsed: the scan releases it and takes over links 3 and 4.
    assert outcomes == [(False, 1, 0), (False, 1, 0), (True, 2, 1)]


def test_the_hop_that_ends_a_run_still_has_its_reservation_looked_at():
    """A hop's reservation is looked at *before* its link, so a lapsed
    reservation on the very hop that ends the run (here: the message
    does not fit the transmit queue) is released by the scan that
    refuses."""
    dc = DataCyclotron(DataCyclotronConfig(n_nodes=12, bat_queue_capacity=4 * MB))
    dc.detach_metrics()
    ff = dc.ff
    link = dc.ring.data[4].link
    small = BATMessage(owner=0, bat_id=1, size=MB, loi=1.0)
    oversized = BATMessage(owner=0, bat_id=2, size=5 * MB, loi=1.0)
    dc.sim.schedule_at(1.0, lambda: ff.send_bat(dc.nodes[4], small, MB))
    dc.sim.run(until=1.0)
    (flight,) = ff._by_bat[1]
    assert ff.data_lane.holder(link) is flight
    dc.sim.run(until=(flight.arrivals[0] + flight.arrivals[1]) / 2)
    refused = ff.refused_short
    assert not ff.send_bat(dc.nodes[4], oversized, 5 * MB)
    assert ff.refused_short == refused + 1
    assert ff.data_lane.holder(link) is None and ff.released == 1
    assert ff._by_bat[1] == [flight]  # released the hop, kept the flight


# ----------------------------------------------------------------------
# the stop index on a live ring
# ----------------------------------------------------------------------
facade_ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove", "delete", "request", "release",
                         "run", "crash", "rejoin"]),
        st.integers(0, 15), st.integers(0, 11),
    ),
    max_size=30,
)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 16), ops=facade_ops)
def test_stop_index_stays_exact_through_the_facade(n, ops):
    dc = DataCyclotron(DataCyclotronConfig(n_nodes=n, rehome_policy="successor"))
    for bat_id in range(6):
        dc.add_bat(bat_id, MB)
    asked = set()
    for step, (op, a, b) in enumerate(ops):
        node = dc.nodes[a % n]
        if op == "add" and not dc.has_bat(b):
            dc.add_bat(b, MB, owner=a % n)
        elif op == "remove" and dc.has_bat(b) and b not in asked:
            dc.remove_bat(b)
        elif op == "delete" and dc.has_bat(b):
            owner = dc.nodes[dc.bat_owner(b)]
            owner.s1.mark_deleted(owner.s1.get(b))
        elif op == "request" and dc.has_bat(b):
            asked.add(b)
            node.request(step, [b])
        elif op == "release":
            node.release_query(b)
        elif op == "run":
            dc.run(until=dc.sim.now + 0.05 * (b + 1))
        elif op == "crash" and dc.ring.is_alive(a % n) and len(dc.live_node_ids) > 2:
            dc.crash_node(a % n)
        elif op == "rejoin" and not dc.ring.is_alive(a % n):
            dc.rejoin_node(a % n)
        assert check_stop_index(dc) == []


def test_a_registration_ahead_lands_the_flight_short_of_the_node():
    """A flight bound for its stop that meets a registration further up
    its arc is cut to land *before* the registering node: the last
    skipped node sends live, so the flight no longer lands in a stop."""
    dc = sparse_ring(observers=True)
    flight = launch_flight(dc)
    assert flight.lands and flight.why == "observed"
    node = (flight.start + 5 * flight.step) % len(dc.nodes)
    assert flight.hop_into(node) == 4 and flight.hop(4)[1] > dc.sim.now
    dc.nodes[node].request(99, [flight.bat_id])
    assert dc.ff.truncations == 1
    assert not flight.lands and len(flight.arrivals) == 4
    dc.run(until=flight.arrivals[-1])
    assert flight not in dc.ff._by_bat.get(flight.bat_id, [])
    assert dc.run_until_done(max_time=120.0)


def test_a_registration_at_a_flights_own_stop_leaves_it_in_the_air():
    """The stop takes a real delivery either way, so a second query
    registering there neither truncates nor flushes the flight."""
    dc = sparse_ring(observers=True, queries=12)
    dc._start_ticks()
    n = len(dc.nodes)

    def landing_in_a_requester():
        for flights in dc.ff._by_bat.values():
            for flight in flights:
                k = len(flight.arrivals)
                stop = (flight.start + k * flight.step) % n
                if (flight.kind == "bat" and flight.lands and stop != flight.msg.owner
                        and flight.hop(k - 1)[1] > dc.sim.now):
                    return flight, stop
        return None

    while (found := landing_in_a_requester()) is None:
        assert dc.sim.step(), "no flight landed in a requester"
    flight, stop = found
    assert dc.nodes[stop].s2.get(flight.bat_id) is not None
    before = (dc.ff.truncations, dc.ff.flushes, len(flight.arrivals))
    dc.nodes[stop].request(99, [flight.bat_id])
    assert (dc.ff.truncations, dc.ff.flushes, len(flight.arrivals)) == before
    assert flight.lands and flight in dc.ff._by_bat[flight.bat_id]
    assert dc.run_until_done(max_time=120.0)
