"""The arc against the scan it replaced.

A :class:`~repro.core.fastforward.Flight` stores ``(lane, start, step,
t0, arrivals)`` and re-derives a hop's ``(link, enqueue, tx,
serialise_end, arrival)`` on the rare paths that need it.  The scan of
the parent commit built that tuple for every hop of every flight; it
survives here, verbatim, as the oracle: over random ring sizes, start
nodes, both travel directions, flight lengths, wire sizes and
*heterogeneous* per-link bandwidths and delays, the derived hop must
equal the stored one float for float, and the O(1) link -> hop and
node -> hop lookups must be exact inverses of it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MB, DataCyclotron, DataCyclotronConfig
from repro.core.messages import BATMessage, RequestMessage
from repro.core.query import QuerySpec

BAT_ID = 7


def parent_scan(dc, kind, pos, step, stop_id, wire):
    """The tuple-building scan of the parent commit (``send_bat`` /
    ``send_request`` differed only in the stop predicate)."""
    n = len(dc.nodes)
    nodes = dc.nodes
    s1maps = [node.s1._bats for node in nodes]
    s2maps = [node.s2._requests for node in nodes]
    channels = dc.ring.data if kind == "bat" else dc.ring.request
    hw = [(ch, ch.link) for ch in channels]
    hops: list = []
    skipped: list = []
    t = dc.sim.now
    limit = dc.ff.scan_limit
    while len(skipped) < limit:
        nxt = (pos + step) % n
        if nxt == stop_id or s2maps[nxt].get(BAT_ID) is not None:
            break
        if kind == "request":
            owned = s1maps[nxt].get(BAT_ID)
            if owned is not None and not owned.deleted:
                break
        ch, link = hw[pos]
        if link.ff_transit is not None:
            break
        if (
            ch.loss_rate != 0.0
            or link._busy
            or link._queue
            or (link.queue_capacity is not None and wire > link.queue_capacity)
        ):
            break
        tx = wire / link.bandwidth
        s_end = t + tx
        arrival = s_end + link.delay
        hops.append((link, t, tx, s_end, arrival))
        skipped.append(nodes[nxt])
        t = arrival
        pos = nxt
    return hops, skipped


def landing(dc, flight):
    """``(time, backdated origin)`` of the flight's live landing event."""
    (entry,) = [e for e in dc.sim._heap if e[5] is flight.event]
    return entry[0], entry[1]


@st.composite
def arcs(draw):
    n = draw(st.integers(3, 64))
    kind, clockwise = draw(st.sampled_from(
        [("bat", False), ("request", False), ("request", True)]
    ))
    links = st.lists(
        st.tuples(st.floats(1e5, 5e9), st.floats(0.0, 2e-3)), min_size=n, max_size=n
    )
    return {
        "n": n, "kind": kind, "clockwise": clockwise,
        "start": draw(st.integers(0, n - 1)),
        "k": draw(st.integers(1, n - 1)),
        "stop_by": draw(st.sampled_from(["id", "s2", "s1"])),
        "wire": draw(st.integers(1, 4 * MB)),
        "t0": draw(st.floats(0.0, 1e4)),
        "data": draw(links), "request": draw(links),
        "cut": draw(st.floats(0.0, 1.0)),
    }


@settings(max_examples=150, deadline=None)
@given(arcs())
def test_arc_rederives_the_parent_scan_float_for_float(arc):
    n, kind, start, k = arc["n"], arc["kind"], arc["start"], arc["k"]
    step = 1 if kind == "bat" or arc["clockwise"] else -1
    dc = DataCyclotron(DataCyclotronConfig(
        n_nodes=n, requests_clockwise=arc["clockwise"],
        request_message_size=arc["wire"],
    ))
    ff = dc.ff
    ff.min_flight = 1
    for channels, specs in ((dc.ring.data, arc["data"]), (dc.ring.request, arc["request"])):
        for ch, (bandwidth, delay) in zip(channels, specs):
            ch.link.set_bandwidth(bandwidth)
            ch.link.delay = delay
    dc.sim.run(until=arc["t0"])

    # the node that stops the message after k hops: the owner / origin
    # itself, an S2 entry, or (requests only) S1 ownership
    stop_node = (start + step * (k + 1)) % n
    stop_by = arc["stop_by"] if stop_node != start else "id"
    if stop_by == "s1" and kind == "bat":
        stop_by = "s2"
    stop_id = stop_node if stop_by == "id" else start
    if stop_by == "s2":
        dc.nodes[stop_node].s2.register(BAT_ID, 1, 0.0)
    elif stop_by == "s1":
        dc.nodes[stop_node].s1.add(BAT_ID, MB)

    wire = arc["wire"]
    hops, skipped = parent_scan(dc, kind, start, step, stop_id, wire)
    assert len(hops) == k
    if kind == "bat":
        msg = BATMessage(owner=stop_id, bat_id=BAT_ID, size=wire, loi=1.0)
        assert ff.send_bat(dc.nodes[start], msg, wire)
    else:
        assert ff.send_request(dc.nodes[start], RequestMessage(stop_id, BAT_ID))
    (flight,) = ff._by_bat[BAT_ID]

    def check(hops, skipped):
        k = len(hops)
        assert len(flight.arrivals) == k
        assert [flight.hop(i) for i in range(k)] == hops
        receivers = [entry[3] for entry in flight.lane[flight.at:flight.at + k]]
        assert receivers == [rt.node_id for rt in skipped]
        # the landing stands in for the last hop's delivery, stamped with
        # the serialise-end the scan carried out of its loop
        assert landing(dc, flight) == (hops[-1][4], hops[-1][3])
        on_arc = {id(hop[0]): i for i, hop in enumerate(hops)}
        for ch in (*dc.ring.data, *dc.ring.request):
            i = on_arc.get(id(ch.link))
            assert flight.hop_of_link(ch.link) == i
            assert (ch.link.ff_transit is flight) == (i is not None)
        into = {rt.node_id: i for i, rt in enumerate(skipped)}
        for node_id in range(n):
            assert flight.hop_into(node_id) == into.get(node_id)

    check(hops, skipped)
    if k >= 2:
        # an S2 registration ahead of the message: land short of it
        stop = 1 + int(arc["cut"] * (k - 2))
        ff._truncate(flight, stop)
        check(hops[:stop], skipped[:stop])


def test_lanes_hold_live_objects_by_reference():
    # the lanes cache Link.stats and the S2/S1 dicts for the life of the
    # deployment: they may be mutated (even cleared by a crash), never
    # rebound
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
        (dc.ff._bat_lane, dc.ring.data, 1), (dc.ff._req_lane, dc.ring.request, -1),
    ):
        assert len(lane) == 2 * n and lane[:n] == lane[n:]
        for j, (ch, link, stats, receiver, s2, s1) in enumerate(lane[:n]):
            pos = (j * step) % n
            assert ch is channels[pos] and link is ch.link and link.ring_pos == pos
            assert receiver == (pos + step) % n
            assert stats is link.stats
            assert s2 is dc.nodes[receiver].s2._requests
            assert s1 is dc.nodes[receiver].s1._bats
