"""A flight that lands in its stop against the landing it replaced.

A flight whose hop into the stop node finds a pristine link at launch
carries that hop too, and its completion *is* the stop's delivery; the
skipped nodes' forwards reach a subscriber that only counts them as one
addition.  The landing that did neither -- a live final send from the
last skipped node, one published event per skipped node -- survives
here, verbatim, as :class:`ParentLanding`, and runs beside the live code
on rings of 3-64 nodes, both request directions, heterogeneous links and
overlapping flights (so arcs truncate and flush).  Everything observable
must agree:

* every delivery into every node: instant, node, message and its
  ``hops`` field;
* the typed event stream, each event at its original timestamp (ordered
  by timestamp: a skipped node's forward is published when its flight
  completes, which is now one hop later, so publish order is not
  compared);
* every link's statistics, ``sim.processed`` and the collector state --
  which must also not depend on whether a typed subscriber that looks at
  the forwards rides along with the bridge.

Where both landings launch the same flights, each flight that lands in
its stop costs exactly two events fewer: the live final hop's
serialise-end and delivery.  A serialise-end that nothing queues behind
is not dispatched but credited when it fires (``repro.net.link``), so
the count compared is the dispatches plus those: what the run would
dispatch were every serialise-end an event.

Every ring here observes ``BatCycled`` (the collector is attached), so
a flight never runs through its owner (``test_owner_pass_oracle.py``
holds that pass to this landing on detached rings): each flight that
reaches an owner nobody else wants lands there, counted as
``owner_landed_observed``.
"""

import random
from bisect import bisect_left
from itertools import accumulate
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.ring as ring_module
from repro.core import MB, DataCyclotron, DataCyclotronConfig
from repro.core.fastforward import FastForwarder, Flight
from repro.core.query import QuerySpec
from repro.core.runtime import NodeRuntime
from repro.events import types as ev
from repro.events.types import RotationFastForwarded
from repro.net.link import Lane
from test_events_golden import snapshot


class ParentLanding(FastForwarder):
    """The parent's scan (no hop into the stop) and landing (a live
    final send, per-hop publishes), verbatim but for the one argument
    ``Flight`` gained and for how both meet a link whose serialise-end
    need not be an event: the scan reads busy state after
    ``Link._settle`` (the parent's ``Lane.busy`` was always current),
    and a flush puts a crossing back through ``Link._put_back``."""

    def _fly(self, kind: str, msg, wire: int, lane: Lane, start: int,
             stops: int) -> bool:
        for link in lane.links:
            link._settle()
        limit = self.scan_limit
        if lane.step > 0:
            ahead = stops >> (start + 1)
            reach = (ahead & -ahead).bit_length() - 1
            if reach > limit:
                reach = limit
            cut = ((lane.busy | lane.lossy) >> start) | (1 << reach)
            k = (cut & -cut).bit_length() - 1
        else:
            top = start + self.n
            below = (1 << top) - 1
            reach = top - (stops & below).bit_length()
            if reach > limit:
                reach = limit
            cut = ((lane.busy | lane.lossy) >> 1 & below) | (1 << (top - 1 - reach))
            k = top - cut.bit_length()
        if wire > lane.capacity:
            k = 0
        if lane.reserved:
            extent = k + (k < reach)
            low = start if lane.step > 0 else start + self.n - extent + 1
            owed = lane.reserved >> low & ((1 << extent) - 1)
            if owed:
                k = self._unreserved_run(lane, start, k, extent, owed)
        if k < self.min_flight:
            self.refused_short += 1
            return False
        steps = lane.steps.get(wire) or lane.time(wire)
        at = 2 * ((start * lane.step) % self.n)
        now = self.sim.now
        clock = list(accumulate(steps[at:at + 2 * k], initial=now))
        self._launch(
            Flight(self, kind, msg, wire, lane, start, now, clock[2::2], False),
            clock[-2],
        )
        return True

    def _publish_forwards(self, flight: Flight, count: int) -> None:
        publish = self.bus.publish
        event = ev.BatForwarded if flight.kind == "bat" else ev.RequestForwarded
        bat_id = flight.bat_id
        n = self.n
        node = flight.start
        step = flight.step
        for when in flight.arrivals[:count]:
            node = (node + step) % n
            publish(event(when, bat_id, node))

    def _last_skipped(self, flight: Flight) -> int:
        return (flight.start + len(flight.arrivals) * flight.step) % self.n

    def _final_send(self, flight: Flight) -> None:
        last = self.nodes[self._last_skipped(flight)]
        if flight.kind == "bat":
            last.forward_bat(flight.msg)
        else:
            if self.bus.active:
                self.bus.publish(
                    ev.RequestForwarded(self.sim.now, flight.bat_id, last.node_id)
                )
            last._ship_request(flight.msg)

    def _complete(self, flight: Flight) -> None:
        if self._debt > 0:
            self._debt -= 1
        k = len(flight.arrivals)
        lane = flight.lane
        lane.reserved ^= flight.held  # _release, whole arc
        lane.account(flight.wire, flight.start, k)
        self._forget(flight)
        flight.msg.hops += k
        # every skipped node but the last: it forwards live via _final_send
        if self.bus.active:
            self._publish_forwards(flight, k - 1)
        # k analytic hops cost 2k classic events; this callback was one
        self.sim.credit(2 * k - 1)
        if self._wants_ff:
            self.bus.publish(
                RotationFastForwarded(
                    self.sim.now, flight.kind, flight.bat_id,
                    self._last_skipped(flight), k,
                )
            )
        self._final_send(flight)

    def _flush_flight(self, flight: Flight) -> None:
        self._release(flight)
        self._forget(flight)
        flight.event.cancel()
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
        msg.hops += done
        if self.bus.active:
            # past every analytic hop only the live final send remains,
            # and _final_send publishes the last node's forward itself
            self._publish_forwards(flight, done - 1 if done == k else done)
        if done == k:
            sim.credit(2 * k)
            self._final_send(flight)
            return
        # the message is crossing hop ``done``: sender-side accounting
        # happened at enqueue time in the classic run, delivery has not
        link, enq, _tx, s_end, arrival = flight.hop(done)
        stats = link._stats
        stats.messages_sent += 1
        stats.bytes_sent += wire
        if stats.max_queue_bytes < wire:
            stats.max_queue_bytes = wire
        if now < s_end or (now == s_end and sim.dispatch_origin < enq):
            link._put_back(msg, wire, enq, s_end)
            sim.credit(2 * done)
        else:
            link._in_flight.append((msg, wire))
            sim.post_backdated(arrival, s_end, link._deliver, msg, wire)
            sim.credit(2 * done + 1)


# every type a subscriber may watch without pinning the classic path;
# RotationFastForwarded is the fast path's own record of a flight
WATCHED = [
    cls for name in ev.__all__
    if isinstance(cls := getattr(ev, name), type) and name not in {
        "SimEventFired", "LinkTransmit", "LinkDelivered",
        "RotationFastForwarded", "TimeGrantIssued", "PartitionSynced",
    }
]


class Run:
    """One deployment and what it observed."""

    def __init__(self, case: dict, parent: bool, recorder: bool):
        deliveries = []

        def logged(kind, handler):
            # a delivery into a node that would not stop the message is
            # real in one run and coalesced in another; into one that
            # would, it is real in every run
            def on_message(node, msg, size):
                bat_id = msg.bat_id
                if node.s2.get(bat_id) is not None or (
                    msg.owner == node.node_id if kind == "bat"
                    else msg.origin == node.node_id or node.s1.owns(bat_id)
                ):
                    deliveries.append(
                        (kind, repr(node.sim.now), node.node_id, bat_id, msg.hops)
                    )
                handler(node, msg, size)
            return on_message

        # the receivers are bound when the ring is wired, so the logging
        # handlers and the oracle need only be in place while it is built
        with mock.patch.object(
            NodeRuntime, "on_bat_message", logged("bat", NodeRuntime.on_bat_message)
        ), mock.patch.object(
            NodeRuntime, "on_request_message",
            logged("request", NodeRuntime.on_request_message),
        ), mock.patch.object(
            ring_module, "FastForwarder", ParentLanding if parent else FastForwarder
        ):
            dc = DataCyclotron(DataCyclotronConfig(
                n_nodes=case["n"], seed=case["seed"],
                requests_clockwise=case["clockwise"],
            ))
        self.dc = dc
        self.deliveries = deliveries
        self.events = []
        if recorder:
            dc.bus.subscribe_many(WATCHED, self.events.append)
        rng = random.Random(case["seed"])
        if case["hetero"]:
            for ch in (*dc.ring.data, *dc.ring.request):
                ch.link.set_bandwidth(rng.uniform(0.5, 2.0) * ch.link.bandwidth)
                ch.link.delay = rng.uniform(0.0, 2.0) * ch.link.delay
        sizes = case["sizes"]
        for bat_id in range(case["bats"]):
            dc.add_bat(bat_id, sizes[bat_id % len(sizes)])
        dc.ff.min_flight = case["min_flight"]
        dc.ff.set_population(0)  # small rings gate BAT scans off; force them on
        t = 0.0
        for q in range(case["queries"]):
            t += rng.expovariate(case["rate"])
            bats = rng.sample(range(case["bats"]), rng.randint(1, min(2, case["bats"])))
            dc.submit(QuerySpec.simple(
                q, rng.randrange(case["n"]), t, bats, [0.002] * len(bats)
            ))
        self.launches = []
        launch = dc.ff._launch

        def logged_launch(flight, s_end):
            self.launches.append(
                (repr(dc.sim.now), flight.kind, flight.bat_id, flight.start,
                 len(flight.arrivals) - flight.lands)
            )
            launch(flight, s_end)

        dc.ff._launch = logged_launch
        assert dc.run_until_done(max_time=3600.0)
        self.stats = dc.ff.stats()

    def observed(self) -> dict:
        """What must not depend on the landing or on who listens."""
        dc = self.dc
        links = [
            (s.messages_sent, s.messages_delivered, s.messages_dropped,
             s.bytes_sent, s.bytes_delivered, s.max_queue_bytes,
             repr(ch.link.busy_time))
            for ch in (*dc.ring.data, *dc.ring.request)
            for s in (ch.link.stats,)
        ]
        return {
            "deliveries": self.deliveries,
            "links": links,
            "processed": dc.sim.processed,
            "collector": snapshot(dc),
        }

    def stream(self) -> list:
        """The typed events by timestamp.  Same-instant events are put in
        ``repr`` order: a flight publishes its skipped nodes' forwards
        when it completes, so which of two events stamped with one
        instant is published first is not part of the contract."""
        return sorted((e.t, repr(e)) for e in self.events)


def classic_dispatches(dc) -> int:
    """Dispatches, plus the serialise-ends that fired unpushed (no delay
    changes once traffic flows, so each one folded was pushed later,
    fired, or is still ahead of the engine)."""
    dispatched = dc.sim.dispatched  # credits the ones that fired
    return dispatched + sum(
        link.ends_folded - link.ends_materialised - (link._end is not None)
        for ch in (*dc.ring.data, *dc.ring.request)
        for link in (ch.link,)
    )


def compare(case: dict) -> tuple:
    parent = Run(case, parent=True, recorder=True)
    watched = Run(case, parent=False, recorder=True)
    counted = Run(case, parent=False, recorder=False)
    assert watched.observed() == parent.observed()
    assert watched.stream() == parent.stream()
    # the bridge counts a landing's forwards in one step exactly when
    # nobody else looks at them
    assert counted.observed() == watched.observed()
    assert watched.stats["forwards_counted"] == 0
    assert parent.stats["landed_in_stop"] == 0
    if counted.stats["flights"]:
        assert counted.stats["forwards_counted"] > 0
    for run in (watched, counted):
        assert run.stats["landed_in_stop"] <= run.stats["flights"]
        # the collector observes BatCycled on every ring here: no flight
        # runs through its owner, and each one that would have lands
        # there, so these rings hold the scan of the parent of the pass
        assert run.stats["owner_passes"] == 0
        assert run.stats["owner_landed_observed"] <= run.stats["landed_in_stop"]
    if counted.launches == parent.launches and not (
        counted.stats["flushes"] or parent.stats["flushes"]
    ):
        # the same flights, each landed: only the live final hops differ
        saved = classic_dispatches(parent.dc) - classic_dispatches(counted.dc)
        assert saved == 2 * counted.stats["landed_in_stop"]
    return parent, counted


cases = st.fixed_dictionaries({
    "n": st.integers(3, 64),
    "seed": st.integers(0, 10_000),
    "clockwise": st.booleans(),
    "hetero": st.booleans(),
    "sizes": st.sampled_from([(MB,), (MB, 3 * MB)]),
    "bats": st.integers(1, 6),
    "queries": st.integers(10, 60),
    "rate": st.sampled_from([0.5, 4.0, 20.0]),
    "min_flight": st.integers(1, 4),
})


@settings(max_examples=60, deadline=None)
@given(cases)
def test_landing_in_the_stop_is_invisible(case):
    compare(case)


def test_overlapping_flights_truncate_flush_and_still_agree():
    """The 64-node regime of the equivalence suite, both directions:
    overlapping flights of two sizes, so arcs lapse, truncate and flush
    while others land in their stops."""
    for clockwise in (False, True):
        parent, counted = compare({
            "n": 64, "seed": 5, "clockwise": clockwise, "hetero": True,
            "sizes": (MB, 3 * MB), "bats": 8, "queries": 200, "rate": 4.0,
            "min_flight": 3,
        })
        stats = counted.stats
        for path in ("flushes", "truncations", "released", "tolerated",
                     "landed_in_stop"):
            assert stats[path] > 0, path
        assert counted.dc.sim.dispatched < parent.dc.sim.dispatched


def test_each_landing_in_the_stop_saves_two_dispatches():
    """Flights that never meet: one BAT, queries far apart.  Both
    landings launch the same flights and flush none, so ``compare``
    holds the event count to the live final hops alone: a serialise-end
    and a delivery per flight that lands in its stop."""
    for clockwise in (False, True):
        for n in (5, 17, 64):
            parent, counted = compare({
                "n": n, "seed": n, "clockwise": clockwise, "hetero": True,
                "sizes": (MB,), "bats": 1, "queries": 12, "rate": 0.2,
                "min_flight": 3,
            })
            assert counted.launches == parent.launches
            assert not counted.stats["flushes"] and not parent.stats["flushes"]
            assert counted.stats["landed_in_stop"] > 0
            assert counted.stats["owner_landed_observed"] > 0
