"""The arc against the per-hop code it replaced.

A :class:`~repro.core.fastforward.Flight` stores ``(lane, start, t0,
arrivals, held)`` and re-derives a hop's ``(link, enqueue, tx,
serialise_end, arrival)`` on the rare paths that need it; how far it
flies is a lookup in the ring's stop index and the lane's link masks;
what it reserves is one mask.  The code all of that replaced survives
here, verbatim, as the oracle:

* the tuple-building scan of two commits ago, for ``Flight.hop``,
  ``hop_of_link``, ``hop_into`` and ``_truncate`` over random ring
  sizes, starts, directions, lengths, wire sizes and *heterogeneous*
  per-link bandwidths and delays;
* the parent's scan loops (eight checks per hop), its per-link
  ``ff_transit`` writes and its ``_release_if_passed``, run as a shadow
  beside live simulations with overlapping flights: every scan must
  launch the same flight float for float, and after every launch,
  release, truncation, flush and landing the holder of every link must
  be the flight the parent would have written into ``link.ff_transit``.

Since a flight may land in its stop node, both oracles carry one more
step than the code they were copied from: where the scan stopped at the
stop node, the hop into it joins the arc if its link passes the same
per-hop checks (reservation first, then the link).  And since a link's
serialise-end may fire without an event, they read whether it is
serialising from ``Link.busy``, which notices that, where the parent's
``Link._busy`` was always current.

Since a BAT flight may also run through its owner, the shadow's scan
runs the owner's landing ahead where nobody asks for the BAT: the
parent's Figure 5 lines per pass, then its per-hop loop over the links
beyond the owner, rotation after rotation.  Such an arc crosses a link
more than once, so the shadow writes a link's holder once per launch
and lets its reservation lapse with the last crossing.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MB, DataCyclotron, DataCyclotronConfig
from repro.core.fastforward import PASS_BOUND
from repro.core.loi import new_loi
from repro.core.messages import BATMessage, RequestMessage
from repro.core.query import QuerySpec
from repro.faults.invariants import check_stop_index

BAT_ID = 7


def parent_scan(dc, kind, pos, step, stop_id, wire):
    """The tuple-building scan of PR 20 (``send_bat`` / ``send_request``
    differed only in the stop predicate); no other flight is in the air
    where it is used, so no link is reserved.  Returns the hops and the
    nodes they enter: the skipped ones, then the stop if the hop into it
    joined the arc."""
    n = len(dc.nodes)
    nodes = dc.nodes
    s1maps = [node.s1._bats for node in nodes]
    s2maps = [node.s2._requests for node in nodes]
    channels = dc.ring.data if kind == "bat" else dc.ring.request
    hw = [(ch, ch.link) for ch in channels]
    hops: list = []
    entered: list = []
    t = dc.sim.now
    limit = dc.ff.scan_limit
    while True:
        nxt = (pos + step) % n
        stop = nxt == stop_id or s2maps[nxt].get(BAT_ID) is not None
        if kind == "request":
            owned = s1maps[nxt].get(BAT_ID)
            stop = stop or (owned is not None and not owned.deleted)
        if not stop and len(entered) == limit:
            break
        ch, link = hw[pos]
        if (
            ch.loss_rate != 0.0
            or link.busy
            or link._queue
            or (link.queue_capacity is not None and wire > link.queue_capacity)
        ):
            break
        tx = wire / link.bandwidth
        s_end = t + tx
        arrival = s_end + link.delay
        hops.append((link, t, tx, s_end, arrival))
        entered.append(nodes[nxt])
        t = arrival
        pos = nxt
        if stop:
            break
    return hops, entered


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
    hops, entered = parent_scan(dc, kind, start, step, stop_id, wire)
    # every link is idle and loss-free: the hop into the stop joins the arc
    assert len(hops) == k + 1 and entered[-1].node_id == stop_node
    if kind == "bat":
        msg = BATMessage(owner=stop_id, bat_id=BAT_ID, size=wire, loi=1.0)
        assert ff.send_bat(dc.nodes[start], msg, wire)
    else:
        assert ff.send_request(dc.nodes[start], RequestMessage(stop_id, BAT_ID))
    (flight,) = ff._by_bat[BAT_ID]
    assert flight.lands

    def check(hops, entered):
        k = len(hops)
        assert len(flight.arrivals) == k
        assert [flight.hop(i) for i in range(k)] == hops
        receivers = [(start + (i + 1) * step) % n for i in range(k)]
        assert receivers == [rt.node_id for rt in entered]
        # the landing stands in for the last hop's delivery, stamped with
        # the serialise-end the scan carried out of its loop
        assert landing(dc, flight) == (hops[-1][4], hops[-1][3])
        on_arc = {id(hop[0]): i for i, hop in enumerate(hops)}
        for ch in (*dc.ring.data, *dc.ring.request):
            i = on_arc.get(id(ch.link))
            assert flight.hop_of_link(ch.link) == i
            assert (ch.link.lane.holder(ch.link) is flight) == (i is not None)
        into = {rt.node_id: i for i, rt in enumerate(entered)}
        for node_id in range(n):
            assert flight.hop_into(node_id) == into.get(node_id)

    check(hops, entered)
    if k >= 2:
        # an S2 registration ahead of the message: land short of it
        stop = 1 + int(arc["cut"] * (k - 2))
        ff._truncate(flight, stop)
        assert not flight.lands
        check(hops[:stop], entered[:stop])


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


# ----------------------------------------------------------------------
# the parent's per-hop machinery as a shadow of a live run
# ----------------------------------------------------------------------
class ParentShadow:
    """``link.ff_transit`` as the parent would have written it, and the
    parent's scans reading it, beside a live :class:`FastForwarder`.

    The forwarder's entry points are wrapped on the instance: each send
    first runs the parent's scan loop over the shadow (it releases lapsed
    reservations as a side effect, exactly where the parent did), then
    the live scan, and compares what they launch; ``_launch`` and
    ``_release`` replay the parent's per-link writes; after each of them
    every link's holder must equal its shadow entry.
    """

    def __init__(self, dc):
        self.dc = dc
        self.ff = ff = dc.ff
        self.n = ff.n
        self.transit = {}          # link -> flight | None  (Link.ff_transit)
        self.released = 0
        self.in_live_scan = False
        # lapses the shadow's scan found that the live scan makes only
        # after it landed the holder at its next pass
        self.deferred: list = []
        self.scans = self.launches = self.lapses = self.landings = 0
        nodes = dc.nodes
        # the parent's lanes: (channel, link, -, receiver id, S2 map, S1 map)
        self.lanes = {}
        for kind, channels, step in (
            ("bat", dc.ring.data, 1),
            ("request", dc.ring.request, 1 if dc.config.requests_clockwise else -1),
        ):
            lane = []
            for j in range(self.n):
                pos = (j * step) % self.n
                receiver = nodes[(pos + step) % self.n]
                lane.append((channels[pos], channels[pos].link, None, receiver.node_id,
                             receiver.s2._requests, receiver.s1._bats))
            self.lanes[kind] = (lane * 2, step)
        self.live = {
            name: getattr(ff, name)
            for name in ("send_bat", "send_request", "_launch", "_release",
                         "_complete", "_release_if_passed")
        }
        ff.send_bat = self.send_bat
        ff.send_request = self.send_request
        ff._launch = self.launch
        ff._release = self.release
        ff._complete = self.complete
        ff._release_if_passed = self.release_if_passed

    # -- the parent's code, reading and writing the shadow ---------------
    def parent_release_if_passed(self, flight, link) -> bool:
        # the parent's test, of every crossing an arc past its owner makes
        i = ((link.ring_pos - flight.start) * flight.step) % self.n
        now = self.dc.sim.now
        while i < len(flight.arrivals):
            enqueue = flight.arrivals[i - 1] if i else flight.t0
            s_end = enqueue + flight.wire / link.bandwidth
            if not (s_end < now or (s_end == now and self.dc.sim.dispatch_origin > enqueue)):
                return False
            i += self.n
        self.transit[link] = None
        self.released += 1
        return True

    def freed_by_landing(self, flight, link) -> bool:
        """A scan meeting a flight that would run through its owner lands
        that flight at its next pass: True if none of the crossings the
        shortened arc keeps is still owed ``link``.  A link the shortened
        arc crossed already lapses as the parent's test says."""
        j = flight.next_pass()
        if j is None:
            return False
        i = ((link.ring_pos - flight.start) * flight.step) % self.n
        now = self.dc.sim.now
        crossed = i <= j
        while i <= j:
            enqueue = flight.arrivals[i - 1] if i else flight.t0
            s_end = enqueue + flight.wire / link.bandwidth
            if not (s_end < now or (s_end == now and self.dc.sim.dispatch_origin > enqueue)):
                return False
            i += self.n
        if crossed:
            self.deferred.append(link)
        return True

    def parent_send_bat(self, node, msg, wire):
        """None: refused on the first hop; else the arrivals scanned and
        whether the last of them is the stop's."""
        lane, _step = self.lanes["bat"]
        owner, bat_id = msg.owner, msg.bat_id
        start = node.node_id
        first = lane[start]
        if first[3] == owner or bat_id in first[4]:
            return None
        arrivals, lands = self.parent_run(
            lane[start:start + self.ff.scan_limit + 1], wire,
            lambda nxt, s2, _s1: nxt == owner or bat_id in s2,
        )
        if (
            lands and len(arrivals) - 1 >= self.ff.min_flight
            and (start + len(arrivals)) % self.n == owner
            and not any(bat_id in entry[4] for entry in lane)
        ):
            return self.parent_pass(msg, wire, arrivals)
        return arrivals, lands

    def parent_pass(self, msg, wire, arrivals):
        """The landing in the owner, run ahead: the parent's Figure 5
        lines once per pass, then ``parent_run``'s per-hop checks over
        the links beyond the owner, and around again per pass."""
        n = self.n
        owner = self.dc.nodes[msg.owner]
        entry = owner.s1.maybe(msg.bat_id)
        if (
            entry is None or entry.deleted or not entry.loaded
            or entry.incarnation != msg.incarnation or entry.version != msg.version
        ):
            return arrivals, True
        loi, copies, hops, cycles = msg.loi, msg.copies, msg.hops + len(arrivals) - 1, msg.cycles
        passes = 0
        while passes < PASS_BOUND:
            cycles += 1
            updated = new_loi(loi, copies, hops, cycles)
            if not owner.loit.is_hot(updated):
                break
            loi = updated
            passes += 1
            copies, hops = 0, n - 1
        if not passes:
            return arrivals, True
        lane, _step = self.lanes["bat"]
        for h in range(n - len(arrivals)):
            ch, link, _stats, _nxt, _s2, _s1 = lane[msg.owner + h]
            ft = self.transit.get(link)
            if ft is not None and not self.parent_release_if_passed(ft, link) \
                    and not self.freed_by_landing(ft, link):
                break
            if (
                ch.loss_rate != 0.0
                or link.busy
                or link._queue
                or (link.queue_capacity is not None and wire > link.queue_capacity)
            ):
                break
        else:
            # pristine all round: every pass, then the landing that ends it
            t = arrivals[-1]
            arrivals = list(arrivals)
            for h in range(passes * n):
                link = lane[(msg.owner + h) % n][1]
                s_end = t + wire / link.bandwidth
                t = s_end + link.delay
                arrivals.append(t)
            return arrivals, True
        # other traffic on the lane: the landing in the owner stands
        return arrivals, True

    def parent_send_request(self, node, msg):
        lane, step = self.lanes["request"]
        origin, bat_id = msg.origin, msg.bat_id
        at = (node.node_id * step) % self.n
        first = lane[at]
        owned = first[5].get(bat_id)
        if first[3] == origin or bat_id in first[4] or (
            owned is not None and not owned.deleted
        ):
            return None

        def stops(nxt, s2, s1):
            owned = s1.get(bat_id)
            return nxt == origin or bat_id in s2 or (
                owned is not None and not owned.deleted
            )

        return self.parent_run(
            lane[at:at + self.ff.scan_limit + 1],
            self.dc.config.request_message_size, stops,
        )

    def parent_run(self, entries, wire, stops):
        """The loop both parent scans shared, plus the hop into the stop.

        Re-pinned to the live scan's early refusal: when the nearest stop
        (or the scan limit) is fewer than ``min_flight`` hops out, no
        flight can skip enough nodes, so the run is refused before any
        link is looked at -- and releases no lapsed reservation.
        """
        limit = self.ff.scan_limit
        reach = next(
            (i for i, (_ch, _link, _stats, nxt, s2, s1) in enumerate(entries)
             if stops(nxt, s2, s1)),
            limit,
        )
        if min(reach, limit) < self.ff.min_flight:
            return [], False
        t = self.dc.sim.now
        arrivals = []
        lands = False
        for ch, link, _stats, nxt, s2, s1 in entries:
            lands = stops(nxt, s2, s1)
            if not lands and len(arrivals) == self.ff.scan_limit:
                break
            ft = self.transit.get(link)
            if ft is not None and not self.parent_release_if_passed(ft, link) \
                    and not self.freed_by_landing(ft, link):
                lands = False
                break
            if (
                ch.loss_rate != 0.0
                or link.busy
                or link._queue
                or (link.queue_capacity is not None and wire > link.queue_capacity)
            ):
                lands = False
                break
            s_end = t + wire / link.bandwidth
            t = s_end + link.delay
            arrivals.append(t)
            if lands:
                break
        return arrivals, lands

    # -- the wrapped entry points ------------------------------------------
    def _send(self, parent_scan, live_send, bat_id, *args):
        ff = self.ff
        gated = not ff.active or ff._debt >= 16 or (
            live_send == "send_request" and not ff.request_enabled
        )
        counters = (ff.refused_first_hop, ff.refused_short, ff.flights)
        expected = None if gated else parent_scan(*args)
        before = list(ff._by_bat.get(bat_id, ()))
        self.in_live_scan = True
        launched = self.live[live_send](*args)
        self.in_live_scan = False
        self.apply_deferred()
        if gated:
            assert not launched
        else:
            self.scans += 1
            assert ff._lazy_ok  # the runs below are detached
            first, short, flights = counters
            if expected is None:
                outcome = (first + 1, short, flights)
            elif len(expected[0]) - expected[1] < ff.min_flight:
                outcome = (first, short + 1, flights)  # skipped nodes count
            else:
                outcome = (first, short, flights + 1)
            assert (ff.refused_first_hop, ff.refused_short, ff.flights) == outcome
            if launched:
                (flight,) = [f for f in ff._by_bat[bat_id] if f not in before]
                # hop for hop, float for float
                assert (flight.arrivals, flight.lands) == expected
                self.landings += flight.lands
        assert ff.released == self.released
        self.check_holders()
        return launched

    def send_bat(self, node, msg, wire):
        return self._send(self.parent_send_bat, "send_bat", msg.bat_id, node, msg, wire)

    def send_request(self, node, msg):
        return self._send(self.parent_send_request, "send_request", msg.bat_id, node, msg)

    def apply_deferred(self):
        for link in self.deferred:
            self.transit[link] = None
            self.released += 1
        self.deferred.clear()

    def launch(self, flight, s_end):
        self.apply_deferred()
        self.live["_launch"](flight, s_end)
        self.launches += 1
        lane, _step = self.lanes[flight.kind]
        # an arc past its owner crosses each link more than once
        for entry in lane[flight.at:flight.at + min(len(flight.arrivals), self.n)]:
            assert self.transit.get(entry[1]) is None  # never double-booked
            self.transit[entry[1]] = flight
        self.check_holders()

    def parent_release(self, flight, since=0):
        lane, _step = self.lanes[flight.kind]
        n, at, k = self.n, flight.at, len(flight.arrivals)
        # a link the kept hops cross again stays held
        kept = {id(lane[(at + h) % n][1]) for h in range(min(since, n))}
        for h in range(since, min(k, since + n)):
            link = lane[(at + h) % n][1]
            if id(link) not in kept and self.transit.get(link) is flight:
                self.transit[link] = None

    def release(self, flight, since=0):
        # from _truncate and _flush_flight
        self.live["_release"](flight, since)
        self.parent_release(flight, since)
        self.check_holders()

    def complete(self, flight):
        # the parent's landing cleared its links first, then sent on --
        # and the live hand-over (a final send, or the stop's handler
        # forwarding) scans again, so the shadow must be current first
        self.parent_release(flight)
        self.live["_complete"](flight)
        self.check_holders()

    def release_if_passed(self, flight, link):
        passed = self.live["_release_if_passed"](flight, link)
        if not self.in_live_scan:
            # from _tolerates (a competing send): the parent ran the same
            # function there; inside a live scan the shadow is written by
            # the parent's scan alone, so a stray release cannot hide
            assert self.parent_release_if_passed(flight, link) == passed
            self.lapses += passed
        return passed

    def check_holders(self):
        ff = self.ff
        in_air = [f for flights in ff._by_bat.values() for f in flights]
        for lane in (ff.data_lane, ff.request_lane):
            for link in lane.links:
                if link not in self.deferred:
                    assert lane.holder(link) is self.transit.get(link), link.name
            mine = [f for f in in_air if f.lane is lane]
            assert sorted(map(id, lane.holders)) == sorted(map(id, mine))
            union = 0
            for flight in mine:
                assert not union & flight.held  # arcs never overlap
                union |= flight.held
            assert union == lane.reserved
            # one bit per link says it is serialising (a queue implies it)
            assert lane.busy == sum(link.lane_bit for link in lane.links if link._busy)
            assert all(link._busy for link in lane.links if link._queue)


def shadowed_ring(n_nodes, seed, clockwise, sizes=(MB, 3 * MB), queries=260):
    """The 64-node regime of the equivalence suite -- two BAT sizes, so
    flights overlap, lapse, truncate and flush -- with the parent's
    machinery shadowing it."""
    import random

    dc = DataCyclotron(DataCyclotronConfig(
        n_nodes=n_nodes, seed=seed, requests_clockwise=clockwise,
    ))
    dc.detach_metrics()
    rng = random.Random(seed)
    for bat_id in range(8):
        dc.add_bat(bat_id, sizes[bat_id % 2])
    t = 0.0
    for q in range(queries):
        t += rng.expovariate(4.0)
        bats = rng.sample(range(3), rng.randint(1, 2))
        dc.submit(QuerySpec.simple(q, rng.randrange(n_nodes), t, bats,
                                   [0.002] * len(bats)))
    return dc, ParentShadow(dc)


def test_every_scan_and_every_holder_match_the_parents_per_hop_code():
    for seed, clockwise in ((5, False), (7, True)):
        dc, shadow = shadowed_ring(64, seed, clockwise)
        assert dc.run_until_done(max_time=600.0)
        stats = dc.ff.stats()
        # every way a reservation ends was exercised
        assert shadow.scans > 1000 and shadow.launches == stats["flights"] > 300
        assert stats["flushes"] and stats["truncations"] and stats["tolerated"]
        # most flights land in their stop, not all: some final links are
        # taken, and a truncation lands short
        assert 0 < stats["landed_in_stop"] <= shadow.landings < shadow.launches
        assert stats["released"] == shadow.released > 0 and shadow.lapses > 0
        # flights ran through their owners, and other traffic met them
        assert stats["owner_passes"] > 0 and stats["owner_landed_contended"] > 0
        assert not any(shadow.transit.values())
        assert dc.ff.data_lane.reserved == dc.ff.request_lane.reserved == 0
        assert check_stop_index(dc) == []


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(3, 24), seed=st.integers(0, 10_000), clockwise=st.booleans(),
    min_flight=st.integers(1, 4),
)
def test_small_rings_match_the_parents_per_hop_code(n, seed, clockwise, min_flight):
    dc, shadow = shadowed_ring(n, seed, clockwise, queries=60)
    dc.ff.min_flight = min_flight
    dc.ff.set_population(0)  # small rings gate BAT scans off; force them on
    assert dc.run_until_done(max_time=600.0)
    assert not any(shadow.transit.values())
    assert check_stop_index(dc) == []


def test_a_lapsed_reservation_follows_the_parents_tie_rule():
    """A scan reaching a reserved link at *exactly* the holder's
    serialise-end there: the wire is free only if the running event was
    scheduled after the holder enqueued on it."""
    outcomes = []
    for scheduled_before_launch in (True, False):
        dc = DataCyclotron(DataCyclotronConfig(n_nodes=12))
        dc.detach_metrics()
        shadow = ParentShadow(dc)
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
            launched = ff.send_bat(dc.nodes[3], second, wire)
            outcomes.append((launched, ff.data_lane.holder(link).bat_id))

        if scheduled_before_launch:
            dc.sim.schedule_at(s_end, chase)
        dc.sim.schedule_at(1.0, lambda: ff.send_bat(dc.nodes[4], first, wire))
        dc.sim.run(until=(1.0 + s_end) / 2)
        assert ff.data_lane.holder(link).bat_id == 1
        if not scheduled_before_launch:
            dc.sim.schedule_at(s_end, chase)
        dc.sim.run(until=s_end)
        assert shadow.scans == 2
    # scheduled before the enqueue, the chaser dispatches before the
    # serialise-end would have and finds the wire taken: one free hop is
    # no flight.  Scheduled after, it takes over links 3 and 4.
    assert outcomes == [(False, 1), (True, 2)]


def test_the_hop_that_ends_a_run_still_has_its_reservation_looked_at():
    """The parent checked a hop's reservation *before* its link, so a
    lapsed reservation on the very hop that ends the run (here: the
    message does not fit the transmit queue) was released by the scan
    that refused."""
    dc = DataCyclotron(DataCyclotronConfig(n_nodes=12, bat_queue_capacity=4 * MB))
    dc.detach_metrics()
    shadow = ParentShadow(dc)
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
    assert ff.data_lane.holder(link) is None and ff.released == shadow.released == 1


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
