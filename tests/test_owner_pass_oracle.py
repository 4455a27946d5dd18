"""A flight that runs through its owner against the landing it replaced.

Where nobody subscribes to ``BatCycled`` and no S2 entry asks for the
BAT, a BAT flight takes its owner's Figure 5 step in closed form and
flies on, rotation after rotation, instead of landing in the owner and
launching a new flight (``repro.core.fastforward``).  The parent's
forwarder -- every flight lands in its owner, whose classic hot-set
code relaunches it -- survives here verbatim (docstrings dropped) as
:class:`ParentOwnerLanding`, with the parent's :class:`Flight`, and
runs beside the live code on detached rings.  Hypothesis draws ring
sizes, static and adaptive LOIT (an adaptive one that starts above
level 0 steps down at the LOIT ticks, so the owner's threshold changes
while flights run through it), a loss timeout short enough that a
request reaching the owner reads a stale ``last_seen`` unless the
passes are settled first, queries that register while flights are in
the air (so copies are served in the first rotation of a flight that
then passes its owner), a BAT update, a BAT removal, and ``summary()``
mid-run.  Both sides must read the same:

* ``sim.processed`` and every link's statistics, at each ``summary()``
  and at the end;
* the header (``cycles``, ``loi`` by ``repr``, ``copies``, ``hops``) of
  every delivery into a requester, and of every owner visit that does
  not keep the BAT hot -- the cold pass that unloads it, a stale copy
  retired;
* every BAT's S1 ``loaded``, ``last_seen`` (by ``repr``), loads,
  incarnation and version, at each ``summary()`` and at the end;
* every query's finish time and outcome.

The live side dispatches fewer events whenever it took a pass, and no
flight passes an owner while an S2 entry asks for its BAT
(``check_owner_passes``) at any of the probes.
"""

import random
from bisect import bisect_left
from itertools import accumulate
from typing import Optional
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.ring as ring_module
from repro.core import MB, DataCyclotron, DataCyclotronConfig
from repro.core.fastforward import FastForwarder
from repro.core.fastforward import Flight as LiveFlight
from repro.core.query import QuerySpec
from repro.core.runtime import NodeRuntime
from repro.events import types as ev
from repro.events.types import RotationFastForwarded
from repro.faults.invariants import check_owner_passes
from repro.net.link import Lane
from repro.xtn.updates import UpdateCoordinator


class Flight(LiveFlight):
    """The parent's flight: one rotation at most, each link crossed once."""

    def hop(self, i: int) -> tuple:
        link = self.lane.travel[self.at + i]
        enqueue = self.arrivals[i - 1] if i else self.t0
        tx = self.wire / link.bandwidth
        return link, enqueue, tx, enqueue + tx, self.arrivals[i]

    def hop_of_link(self, link) -> Optional[int]:
        i = ((link.ring_pos - self.start) * self.step) % self.ff.n
        if i < len(self.arrivals) and self.lane.travel[self.at + i] is link:
            return i
        return None

    def hop_into(self, node_id: int) -> Optional[int]:
        i = ((node_id - self.start) * self.step - 1) % self.ff.n
        return i if i < len(self.arrivals) else None



class ParentOwnerLanding(FastForwarder):
    """The parent's scan and flight mechanics: every BAT flight that
    reaches its owner lands there."""


    def flush_bat(self, bat_id: int, node_id: Optional[int] = None) -> None:
        flights = self._by_bat.get(bat_id)
        if node_id is None:
            while flights:
                flights[0].flush()
                flights = self._by_bat.get(bat_id)
            return
        if not flights:
            return
        now = self.sim.now
        for flight in list(flights):
            i = flight.hop_into(node_id)
            if i is None or (flight.lands and i == len(flight.arrivals) - 1):
                continue  # off the arc, or its stop: that delivery is real
            _link, enqueue, _tx, s_end, arrival = flight.hop(i)
            # At an exact tie (arrival == now) the classic run's order
            # is decided by heap seq: the delivery was scheduled at the
            # hop's serialise-end, the registering event at
            # ``dispatch_origin``.  If the registration was scheduled
            # first it also dispatches first, so the delivery must
            # re-materialise as pending (and will see the new entry);
            # otherwise the node was already passed.
            if arrival < now or (arrival == now and self.sim.dispatch_origin > s_end):
                continue  # node already passed (its S2 check is behind us)
            if enqueue <= now:
                # mid-hop into the node: re-materialise the crossing
                # so the node takes a real delivery at the exact time
                self._flush_flight(flight)
            else:
                self._truncate(flight, i)

    def _fly(self, kind: str, msg, wire: int, lane: Lane, start: int,
             stops: int) -> bool:
        limit = self.scan_limit
        # the link that cuts the run may only look busy: its serialise-end
        # fired unpushed since the bit was set (Link._settle notices that,
        # and the run is cut again)
        first = (start * lane.step) % self.n
        if lane.step > 0:
            ahead = stops >> (start + 1)
            reach = (ahead & -ahead).bit_length() - 1
            end = reach + 1
            if reach > limit:
                end = reach = limit
            if reach < self.min_flight:
                self.refused_short += 1
                return False
            cut = ((lane.busy | lane.lossy) >> start) | (1 << end)
            k = (cut & -cut).bit_length() - 1
            while k < end and lane.travel[first + k]._settle():
                cut = ((lane.busy | lane.lossy) >> start) | (1 << end)
                k = (cut & -cut).bit_length() - 1
        else:
            # hop i leaves position start - i: doubled bit top - i
            top = start + self.n
            reach = top - (stops & ((1 << top) - 1)).bit_length()
            end = reach + 1
            if reach > limit:
                end = reach = limit
            if reach < self.min_flight:
                self.refused_short += 1
                return False
            cut = ((lane.busy | lane.lossy) & ((2 << top) - 1)) | (1 << (top - end))
            k = top + 1 - cut.bit_length()
            while k < end and lane.travel[first + k]._settle():
                cut = ((lane.busy | lane.lossy) & ((2 << top) - 1)) | (1 << (top - end))
                k = top + 1 - cut.bit_length()
        if wire > lane.capacity:
            k = 0
        if lane.reserved:
            # Reservations are looked at hop by hop, up to and including
            # the hop a non-pristine link ended the run on -- but only
            # those there are: the walk visits reserved links, not hops.
            extent = k + (k < end)
            low = start if lane.step > 0 else start + self.n - extent + 1
            owed = lane.reserved >> low & ((1 << extent) - 1)
            if owed:
                k = self._unreserved_run(lane, start, k, extent, owed)
        lands = k > reach
        if k - lands < self.min_flight:
            # a short flight saves a couple of net events but pays for
            # the whole flight machinery; let the classic path handle it
            self.refused_short += 1
            return False
        # What is left per hop is the wire's own float recurrence, s_end
        # = t + wire/bandwidth; t = s_end + delay: a running sum over the
        # lane's per-link steps, which yields every serialise-end (odd
        # places) and every arrival (even places) from the launch instant.
        steps = lane.steps.get(wire) or lane.time(wire)
        at = 2 * first
        now = self.sim.now
        clock = list(accumulate(steps[at:at + 2 * k], initial=now))
        self._launch(
            Flight(self, kind, msg, wire, lane, start, now, clock[2::2], lands),
            clock[-2],
        )
        return True

    def _release_if_passed(self, flight: Flight, link) -> bool:
        i = ((link.ring_pos - flight.start) * flight.step) % self.n
        enqueue = flight.arrivals[i - 1] if i else flight.t0
        s_end = enqueue + flight.wire / link.bandwidth
        now = self.sim.now
        if s_end < now or (s_end == now and self.sim.dispatch_origin > enqueue):
            flight.held ^= link.lane_bit
            flight.lane.reserved ^= link.lane_bit
            self.released += 1
            return True
        return False

    def _tolerates(self, flight: Flight, link, size: int) -> bool:
        i = flight.hop_of_link(link)
        if i is None:
            return False  # pragma: no cover - defensive
        enqueue = flight.arrivals[i - 1] if i else flight.t0
        now = self.sim.now
        if now >= enqueue:  # crossing it, or crossed
            return self._release_if_passed(flight, link)
        bandwidth = link.bandwidth
        # an idle wire -- or one whose serialise-end fired unpushed --
        # freed at or before now
        drain = link._busy_until
        if drain < now:
            drain = now
        if link._queue:
            drain += link._queued_bytes / bandwidth
        drain += size / bandwidth
        if drain < enqueue:
            self.tolerated += 1
            return True
        return False

    def _truncate(self, flight: Flight, stop: int) -> None:
        arrivals = flight.arrivals
        self._release(flight, stop)
        self.hops_coalesced -= len(arrivals) - flight.lands - stop
        self.truncations += 1
        flight.lands = False
        del arrivals[stop:]
        flight.event.cancel()
        flight.event = self.sim.schedule_backdated_at(
            arrivals[-1], flight.hop(stop - 1)[3], self._complete, flight
        )

    def _release(self, flight: Flight, since: int = 0) -> None:
        freed = flight.held
        if since:
            freed &= flight.lane.arc(
                flight.start, since, len(flight.arrivals) - since
            )
        flight.held ^= freed
        flight.lane.reserved ^= freed

    def _hand_over(self, flight: Flight) -> None:
        if flight.lands:
            link = flight.lane.travel[flight.at + len(flight.arrivals) - 1]
            link.on_receive(flight.msg, flight.wire)
            return
        last = self.nodes[self._last_skipped(flight)]
        if flight.kind == "bat":
            last.forward_bat(flight.msg)
        else:
            if self.bus.active:
                last._forwarded(ev.RequestForwarded, flight.bat_id)
            last._ship_request(flight.msg)

    def _complete(self, flight: Flight) -> None:
        # the event's args hold the flight: break the cycle, so a landed
        # flight is freed by its reference count, not by the collector
        flight.event = None
        if self._debt > 0:
            self._debt -= 1
        k = len(flight.arrivals)
        lane = flight.lane
        lane.reserved ^= flight.held  # _release, whole arc
        lane.account(flight.wire, flight.start, k)
        self._forget(flight)
        skipped = k - flight.lands
        flight.msg.hops += skipped
        # k - 1 forwards either way: a flight that lands in its stop has
        # k - 1 skipped nodes, one that does not forwards its last live
        if self.bus.active:
            self._publish_forwards(flight, k - 1)
        # k analytic hops cost 2k classic events; this callback was one
        self.sim.credit(2 * k - 1)
        if self._wants_ff:
            self.bus.publish(
                RotationFastForwarded(
                    self.sim.now, flight.kind, flight.bat_id,
                    self._last_skipped(flight), skipped,
                )
            )
        self.landed_in_stop += flight.lands
        self._hand_over(flight)

    def _flush_flight(self, flight: Flight) -> None:
        self._release(flight)
        self._forget(flight)
        flight.event.cancel()
        flight.event = None  # as in _complete: no flight <-> event cycle
        self.flushes += 1
        if self._debt < 64:
            self._debt += 4
        sim = self.sim
        now = sim.now
        wire = flight.wire
        msg = flight.msg
        arrivals = flight.arrivals
        k = len(arrivals)
        done = bisect_left(arrivals, now)
        if (
            done < k
            and arrivals[done] == now
            and sim.dispatch_origin > flight.hop(done)[3]
        ):
            done += 1
        if done:
            flight.lane.account(wire, flight.start, done)
        # the nodes it reached, the stop excepted: its own handler counts
        msg.hops += done - (done == k and flight.lands)
        if self.bus.active:
            # past every analytic hop only the hand-over remains: into the
            # stop, or a live final send that publishes its own forward
            self._publish_forwards(flight, done - 1 if done == k else done)
        if done == k:
            sim.credit(2 * k)
            self._hand_over(flight)
            return
        # the message is crossing hop ``done``: sender-side accounting
        # happened at enqueue time in the classic run, delivery has not
        link, enq, _tx, s_end, arrival = flight.hop(done)
        stats = link._stats
        stats.messages_sent += 1
        stats.bytes_sent += wire
        if stats.max_queue_bytes < wire:
            stats.max_queue_bytes = wire
        # serialise-end was classically scheduled at the hop's enqueue;
        # at an exact tie (now == s_end) it has dispatched only if the
        # running event was scheduled after the enqueue
        if now < s_end or (now == s_end and sim.dispatch_origin < enq):
            # back on the wire as if sent at the enqueue: the link posts
            # the delivery and reserves the serialise-end under that
            # scheduling time
            link._put_back(msg, wire, enq, s_end)
            sim.credit(2 * done)
        else:
            link._in_flight.append((msg, wire))
            sim.post_backdated(arrival, s_end, link._deliver, msg, wire)
            sim.credit(2 * done + 1)

# a ladder whose two upper levels straddle the LOI of a BAT on its third
# and fourth rotation past nobody
SWING_LEVELS = (0.001, 0.05, 0.2)


def swing(loit) -> None:
    """Feed the controller a buffer load that alternates between its two
    watermarks, so the level steps up and down at every LOIT tick (and
    never reaches 0, where the facade stops ticking an idle node)."""
    observe = loit.observe
    loads = iter([0.9, 0.1] * 100_000)
    loit.observe = lambda _load: observe(next(loads))


def header(msg) -> tuple:
    return (msg.cycles, repr(msg.loi), msg.copies, msg.hops)


class Run:
    """One detached deployment and what it observed."""

    def __init__(self, case: dict, parent: bool):
        log = self.log = {"requester": [], "owner": [], "finish": [], "probes": []}
        deliver = NodeRuntime.on_bat_message

        def on_bat_message(node, msg, size):
            # a delivery into a requester is real on both sides
            if msg.owner != node.node_id and node.s2.get(msg.bat_id) is not None:
                log["requester"].append(
                    (repr(node.sim.now), node.node_id, msg.bat_id) + header(msg)
                )
            deliver(node, msg, size)

        n = case["n"]
        probe_config = DataCyclotronConfig(n_nodes=n)
        rotation = n * (MB / probe_config.bandwidth + probe_config.link_delay)
        kind, level = case["loit"]
        config = DataCyclotronConfig(
            n_nodes=n, seed=case["seed"],
            loit_static=level if kind == "static" else None,
            loit_levels=SWING_LEVELS if kind == "swing" else (0.1, 0.6, 1.1),
            loit_initial_level=0 if kind == "static" else level,
            loit_adapt_interval=case["tick"],
            resend_timeout=(
                None if case["timeout"] is None else case["timeout"] * rotation
            ),
        )
        # the receivers are bound when the ring is wired
        with mock.patch.object(NodeRuntime, "on_bat_message", on_bat_message), \
                mock.patch.object(
                    ring_module, "FastForwarder",
                    ParentOwnerLanding if parent else FastForwarder,
                ):
            dc = DataCyclotron(config)
        self.dc = dc
        dc.detach_metrics()
        for bat_id in range(2):
            dc.add_bat(bat_id, MB)
        for node in dc.nodes:
            self._watch(node)
            if kind == "swing":
                swing(node.loit)

        rng = random.Random(case["seed"])
        t = asked = 0.0
        for q in range(case["queries"]):
            t += rng.expovariate(case["rate"])
            # BAT 1 is asked for in the first half only: it may be removed
            bat_id = 1 if 2 * q < case["queries"] and rng.random() < 0.4 else 0
            asked = t if bat_id else asked
            dc.submit(QuerySpec.simple(q, rng.randrange(n), t, [bat_id], [0.002]))
        horizon = t
        if case["update"]:
            UpdateCoordinator(dc).submit_update(
                0, rng.randrange(n), 0.001, arrival=rng.uniform(0.0, horizon)
            )
        if case["remove"]:
            dc.sim.post_at(asked + rng.uniform(0.0, horizon), self.remove)
        for fraction in case["probes"]:
            dc.sim.post_at(fraction * horizon, self.probe)
        assert dc.run_until_done(max_time=600.0)
        self.stats = dc.ff.stats()

    def _watch(self, node) -> None:
        log = self.log
        dc = self.dc
        visit = node._hot_set_management
        finish = node.finish_query
        request = node.request

        def hot_set_management(msg):
            # an owner visit that keeps the BAT hot is real on one side
            # only; every other one is real on both
            entry = node.s1.maybe(msg.bat_id)
            kept = (
                entry is not None and not entry.deleted and entry.loaded
                and msg.incarnation == entry.incarnation
                and msg.version == entry.version
                and node.hot_set_step(msg.loi, msg.copies, msg.hops, msg.cycles)[2]
            )
            if not kept:
                log["owner"].append(
                    (repr(node.sim.now), node.node_id, msg.bat_id) + header(msg)
                )
            visit(msg)

        def finish_query(query_id, failed=False, error=""):
            log["finish"].append((query_id, repr(node.sim.now), failed, error))
            finish(query_id, failed, error)

        def request_and_check(query_id, bat_ids):
            request(query_id, bat_ids)
            # the registration landed every flight that would pass an owner
            assert check_owner_passes(dc) == []

        node._hot_set_management = hot_set_management
        node.finish_query = finish_query
        node.request = request_and_check

    def remove(self) -> None:
        """``remove_bat(1)`` once nothing asks for it (its precondition:
        two requesters of a removed BAT absorb each other's requests)."""
        dc = self.dc
        if dc.index.requested.get(1) or any(
            node.s3.has_pins(1) or 1 in node._local_fetches for node in dc.nodes
        ):
            dc.sim.post(0.05, self.remove)
            return
        dc.remove_bat(1)

    def probe(self) -> None:
        """``summary()`` mid-run, and what it leaves readable."""
        dc = self.dc
        assert check_owner_passes(dc) == []
        dc.summary()
        self.log["probes"].append((repr(dc.sim.now),) + self.state())

    def state(self) -> tuple:
        dc = self.dc
        links = tuple(
            (s.messages_sent, s.messages_delivered, s.messages_dropped,
             s.bytes_sent, s.bytes_delivered, s.max_queue_bytes,
             repr(ch.link.busy_time))
            for ch in (*dc.ring.data, *dc.ring.request)
            for s in (ch.link.stats,)
        )
        s1 = tuple(
            (node.node_id, entry.bat_id, entry.loaded, repr(entry.last_seen),
             entry.loads, entry.incarnation, entry.version, entry.deleted)
            for node in dc.nodes
            for entry in node.s1
        )
        return dc.sim.processed, links, s1

    def observed(self) -> dict:
        self.dc.ff.flush_all()
        return {**self.log, "end": self.state()}


cases = st.fixed_dictionaries({
    "n": st.integers(3, 24),
    "seed": st.integers(0, 10_000),
    "loit": st.sampled_from([
        ("static", 0.0), ("static", 0.05),
        ("adaptive", 0), ("adaptive", 1), ("adaptive", 2), ("swing", 1),
    ]),
    "tick": st.sampled_from([0.02, 0.3, 2.0]),
    # loss timeout in rotations (at 1.1 an owner that reads last_seen
    # before the passes are settled declares the BAT lost); None: derived
    "timeout": st.sampled_from([1.1, 3.0, None]),
    "queries": st.integers(1, 25),
    "rate": st.sampled_from([0.5, 3.0, 15.0]),
    "update": st.booleans(),
    "remove": st.booleans(),
    "probes": st.lists(st.floats(0.0, 1.0), max_size=3),
})


def compare(case: dict) -> tuple:
    parent = Run(case, parent=True)
    live = Run(case, parent=False)
    assert live.observed() == parent.observed()
    assert parent.stats["owner_passes"] == 0
    if not live.stats["owner_landed_contended"]:
        # nothing else met a flight running through its owner: each pass
        # is one landing fewer, and nothing else moves
        if live.stats["owner_passes"]:
            assert live.dc.sim.dispatched < parent.dc.sim.dispatched
        else:
            assert live.dc.sim.dispatched == parent.dc.sim.dispatched
    return parent, live


# rings on which every way a pass ends is taken (see the test below)
FIXED = (
    {"n": 20, "seed": 0, "loit": ("adaptive", 0), "tick": 2.0,
     "timeout": 1.1, "queries": 20, "rate": 15.0, "update": True,
     "remove": True, "probes": [0.3, 0.7]},
    {"n": 16, "seed": 8, "loit": ("static", 0.0), "tick": 2.0,
     "timeout": None, "queries": 6, "rate": 0.5, "update": False,
     "remove": False, "probes": [0.5]},
    {"n": 9, "seed": 5, "loit": ("swing", 1), "tick": 0.02,
     "timeout": 3.0, "queries": 12, "rate": 15.0, "update": False,
     "remove": False, "probes": []},
)


@settings(max_examples=80, deadline=None)
@given(cases)
@example(FIXED[0])
@example(FIXED[2])
def test_an_owner_pass_is_the_landing_it_replaced(case):
    compare(case)


def test_every_way_a_pass_ends_is_exercised():
    """Fixed rings on which flights pass their owners and stop passing
    for each reason: the BAT cools, the owner's LOIT steps down, the
    pass bound, a requester registering, an update at the owner, and a
    request reaching the owner mid-flight."""
    totals: dict = {}
    settles = []
    for case in FIXED:
        def settle_passes(ff, bat_id, settle=FastForwarder.settle_passes):
            before = ff.owner_passes
            settle(ff, bat_id)
            settles.append(ff.owner_passes - before)

        with mock.patch.object(FastForwarder, "settle_passes", settle_passes):
            _parent, live = compare(case)
        for name, value in live.stats.items():
            if name.startswith("owner_"):
                totals[name] = totals.get(name, 0) + value
    assert totals["owner_passes"] > 0
    for why in ("cooled", "loit", "bound"):
        assert totals[f"owner_landed_{why}"] > 0, why
    assert totals["owner_landed_observed"] == 0  # every ring is detached
    # a request reached an owner a flight had run through unsettled
    assert sum(settles) > 0
