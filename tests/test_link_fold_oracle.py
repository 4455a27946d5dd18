"""A link whose serialise-end is an event only when a message waits,
against the link whose every serialise-end was one.

``repro.net.link`` posts a message's delivery when it starts serialising
and only reserves the serialise-end's heap key; the end is pushed under
that key when a second send finds it still ahead of the engine, and
credited when it fires unpushed.  The three-event link it replaced
(enqueue, serialise-end, delivery) survives here, verbatim, as
:class:`ClassicLink` behind the channel it was driven through,
:class:`ClassicChannel`, and runs beside the live pair on the same random
traffic: mixed sizes (zero included), bandwidths, delays (zero-delay
links like the partitioned kernel's ``xpart`` channels included) and
DropTail capacities; same-instant ticks; sends timed at exact
serialise-end instants; deliveries forwarded on in the same callback;
``purge_queue`` mid-serialisation; ``degrade`` / ``restore`` (bandwidth,
delay and loss) mid-serialisation; injected loss.  At every step --
every tick, delivery and drop -- both sides must read the same:

* the (time, order) of every delivery and every drop;
* every link's ``LinkStats``, ``repr(busy_time)``, ``busy``, queued and
  in-flight items;
* ``sim.processed``, and ``sim.dispatched`` lower on the live side by
  exactly the serialise-ends that fired unpushed.
"""

import dataclasses
import random
from typing import Any

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.channel import Channel
from repro.net.link import Link
from repro.sim.engine import Simulator


class ClassicLink(Link):
    """The three-event link: the parent's event path, verbatim."""

    @property
    def busy(self) -> bool:
        return self._busy

    @Link.delay.setter
    def delay(self, delay: float) -> None:
        if delay < 0:
            raise ValueError("delay cannot be negative")
        self._delay = delay
        self.lane.steps.clear()

    def send(self, message: Any, size: int) -> bool:
        lane = self.lane
        if lane.reserved and lane.reserved & self.lane_bit:
            lane.holder(self).touch(self, size)
        if size < 0:
            raise ValueError("message size cannot be negative")
        if (
            self.queue_capacity is not None
            and self._queued_bytes + size > self.queue_capacity
        ):
            self._stats.messages_dropped += 1
            self._stats.bytes_dropped += size
            if self.on_drop is not None:
                self.on_drop(message, size)
            return False
        self._queue.append((message, size))
        self._queued_bytes += size
        stats = self._stats
        if stats.max_queue_bytes < self._queued_bytes:
            stats.max_queue_bytes = self._queued_bytes
        if not self._busy:
            self._busy = True
            lane.busy |= self.lane_bit
            self._transmit_next()
        return True

    def _transmit_next(self) -> None:
        if not self._queue:
            self._busy = False
            self.lane.busy ^= self.lane_bit
            return
        message, size = self._queue.popleft()
        self._queued_bytes -= size
        self._in_flight.append((message, size))
        tx_time = size / self.bandwidth
        self._busy_until = self.sim.now + tx_time
        stats = self._stats
        stats.messages_sent += 1
        stats.bytes_sent += size
        self.sim.post(tx_time, self._serialised, message, size)

    def _serialised(self, message: Any, size: int) -> None:
        self.sim.post(self._delay, self._deliver, message, size)
        self._transmit_next()

    def _deliver(self, message: Any, size: int) -> None:
        self._in_flight.remove((message, size))
        stats = self._stats
        stats.messages_delivered += 1
        stats.bytes_delivered += size
        if self.on_receive is not None:
            self.on_receive(message, size)


class ClassicChannel(Channel):
    """The parent's channel: every send through ``Channel.send``, every
    delivery through ``_arrived``, over a :class:`ClassicLink`."""

    def __init__(self, sim, bandwidth, delay, queue_capacity, loss_rate, rng, name):
        self.sim = sim
        self.name = name
        self.loss_rate = loss_rate
        self.bus = None
        self._rng = rng
        self._receiver = None
        self._loss_handler = None
        self.dropped_by_loss = 0
        self.link = ClassicLink(
            sim, bandwidth=bandwidth, delay=delay, queue_capacity=queue_capacity,
            on_receive=self._arrived, name=name,
        )

    def set_receiver(self, fn) -> None:
        self._receiver = fn

    def _set_loss_rate(self, loss_rate: float) -> None:
        self.loss_rate = loss_rate

    def _arrived(self, message: Any, size: int) -> None:
        self._receiver(message, size)


class Msg:
    __slots__ = ("k", "hops")

    def __init__(self, k: int, hops: int = 0):
        self.k = k
        self.hops = hops

    def __repr__(self) -> str:
        return f"m{self.k}"


class Side:
    """One simulation of the scripted traffic, and what it observed."""

    def __init__(self, case: dict, classic: bool):
        self.sim = sim = Simulator()
        make = ClassicChannel if classic else Channel
        self.channels = []
        for i, (bandwidth, delay, capacity, loss) in enumerate(case["links"]):
            ch = make(
                sim, bandwidth=bandwidth, delay=delay, queue_capacity=capacity,
                loss_rate=loss, rng=random.Random(i), name=f"l{i}",
            )
            ch.set_receiver(lambda m, size, i=i: self.delivered(i, m, size))
            ch.set_drop_handler(lambda m, size, i=i: self.log("droptail", i, m))
            ch.set_loss_handler(lambda m, size, i=i: self.log("loss", i, m))
            self.channels.append(ch)
        self.forward = case["forward"]
        self.saved = {}
        self.steps = []
        self.made = 0
        for at, action in case["script"]:
            sim.post_at(at * case["tick"], self.tick, *action)
        sim.run()
        self.log("end", -1, None)

    def msg(self, hops: int = 0) -> Msg:
        self.made += 1
        return Msg(self.made, hops)

    def tick(self, kind: str, i: int, size: int, j: int) -> None:
        ch = self.channels[i % len(self.channels)]
        if kind == "send":
            ch.send(self.msg(), size)
        elif kind == "at_end":
            # a send timed at link j's serialise-end instant, exactly
            other = self.channels[j % len(self.channels)].link
            if other.busy:
                self.sim.post_at(other._busy_until, self.tick, "send", i, size, j)
        elif kind == "purge":
            ch.purge_queue()
        elif kind == "degrade" and i not in self.saved:
            self.saved[i] = ch.degrade(
                bandwidth_factor=(0.5, 2.0)[j % 2], extra_delay=(0.0, 0.002)[size % 2],
                loss_rate=(None, 0.0, 0.5)[j % 3],
            )
        elif kind == "restore" and i in self.saved:
            ch.restore(self.saved.pop(i))
        self.log("tick", i, kind)

    def delivered(self, i: int, m: Msg, size: int) -> None:
        self.log("deliver", i, m)
        target = self.forward[i]
        if target is not None and m.hops < 3:
            self.channels[target].send(self.msg(m.hops + 1), size)

    def log(self, what: str, i: int, detail) -> None:
        sim = self.sim
        links = [ch.link for ch in self.channels]
        processed = sim.processed  # credits the ends the engine passed
        dispatched = sim.dispatched + sum(
            link.ends_folded - link.ends_materialised - (link._end is not None)
            for link in links
        )
        self.steps.append((
            what, i, repr(detail), repr(sim.now), processed, dispatched,
            [
                (dataclasses.astuple(link.stats), repr(link.busy_time), link.busy,
                 repr(link.queued_items()), repr(link.in_flight_items()))
                for link in links
            ],
        ))


# Bandwidths and delays are drawn from a continuum: the one thing the
# fold does not reproduce is an event at a serialise-end instant, ahead
# of that serialise-end, scheduling something for exactly the link's
# delay later (module docstring of repro.net.link), and with round
# numbers a serialise-end of one link lasting exactly another's delay is
# common, where no workload's byte counts over its bandwidths are.  Ties
# the fold must and does order classically are made on purpose: ticks
# share instants, sends are timed at exact serialise-ends, zero-byte
# messages serialise in no time, a delivery's forward starts at once.
links = st.tuples(
    st.floats(1e3, 1e5),
    st.one_of(st.just(0.0), st.floats(1e-4, 1e-2)),
    st.sampled_from([None, None, 50, 200]),
    st.sampled_from([0.0, 0.0, 0.0, 0.3]),
)
actions = st.tuples(
    st.sampled_from(["send"] * 6 + ["at_end"] * 3 + ["purge", "degrade", "restore"]),
    st.integers(0, 5), st.sampled_from([0, 0, 1, 7, 40, 100, 250]), st.integers(0, 5),
)


@st.composite
def cases(draw):
    n = draw(st.integers(1, 4))
    return {
        "links": draw(st.lists(links, min_size=n, max_size=n)),
        "forward": draw(st.lists(
            st.one_of(st.none(), st.integers(0, n - 1)), min_size=n, max_size=n,
        )),
        # a coarse grid: ticks share instants, and land on deliveries
        "tick": draw(st.sampled_from([0.001, 0.0025, 0.01])),
        "script": draw(st.lists(
            st.tuples(st.integers(0, 12), actions), min_size=1, max_size=40,
        )),
    }


def compare(case: dict) -> Side:
    classic = Side(case, classic=True)
    live = Side(case, classic=False)
    assert live.steps == classic.steps
    return live


@settings(max_examples=300, deadline=None)
@given(cases())
def test_an_unpushed_serialise_end_is_invisible(case):
    compare(case)


def test_every_path_of_the_end_is_exercised(monkeypatch):
    """One busy script, so that each way a serialise-end ends up is
    taken: folded and fired, materialised by a waiting message, handed
    back to a classic event by a delay change, kept classic on a
    zero-delay link (never degraded here, so its delay stays zero)."""
    unfolds = []
    unfold = Link._unfold
    monkeypatch.setattr(Link, "_unfold", lambda link: unfolds.append(unfold(link)))
    rng = random.Random(7)
    script = []
    for k in range(400):
        kind = rng.choice(["send"] * 6 + ["at_end"] * 3 + ["purge", "degrade", "restore"])
        i = rng.choice([0, 2]) if kind in ("degrade", "restore") else rng.randrange(3)
        script.append((k // 4, (kind, i, rng.choice([1, 40, 250]), rng.randrange(3))))
    live = compare({
        "links": [(1.3e4, 0.0027, 200, 0.0), (4.1e3, 0.0, None, 0.0), (9.7e4, 0.0011, None, 0.3)],
        "forward": [1, 2, None],
        "tick": 0.0025,
        "script": script,
    })
    folded = sum(ch.link.ends_folded for ch in live.channels)
    materialised = sum(ch.link.ends_materialised for ch in live.channels)
    assert folded > materialised > 0
    assert unfolds
    zero_delay = live.channels[1].link
    assert zero_delay.stats.messages_sent > 0 and zero_delay.ends_folded == 0
    assert live.sim.credited > 0
