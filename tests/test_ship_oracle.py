"""Ship-vs-transfer and the ring bids against their own past.

``RingFederation.submit`` derives a query's distinct BATs once; the
unknown-BAT check, ``_maybe_ship`` and the target ring's bids all read
that one list, the bytes per home ring are summed in one pass, and the
dispatched spec is one copy.  ``BidScheduler`` prices every node of its
ring in one pass over the BATs (``BidScheduler.quote``) and picks the
winner by ``(price, node)`` without building a bid per node.

The oracle below is the code that did the same job before:
``submit``, ``_scheduler`` and ``_maybe_ship`` of the federation and
``NodeBid``, ``bid``, ``collect_bids``, ``place_at`` and ``place`` of the
scheduler, kept verbatim but for ``ship_by_estimate``, an option that
is gone and is pinned off.  Hypothesis builds the same federation twice
-- 2-5 rings of 3-8 nodes, standby and retired rings, random homes,
owners and sizes, zero-byte catalog entries, ``ship_threshold`` across
(0, 1], bid loads that are already there -- and submits the same
queries to both.  After every submit the
two agree on the chosen ring, every field of the dispatched spec (the
arrival bit for bit), every ring's placements, load counts and bids,
and the ``QueryShipped`` stream.
"""

from dataclasses import dataclass, fields, replace
from typing import Any, Dict, List

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import MB, DataCyclotronConfig
from repro.core.query import PinStep, QuerySpec
from repro.core.ring import DataCyclotron
from repro.events import types as ev
from repro.multiring import MultiRingConfig, RingFederation
from repro.xtn.bidding import BidScheduler


# ----------------------------------------------------------------------
# the oracle: the per-node bids and the two-copy ship path, verbatim
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ParentNodeBid:
    """One node's quote for executing a query."""

    node: int
    load_cost: float
    data_cost: float

    @property
    def price(self) -> float:
        return self.load_cost + self.data_cost


class ParentBidScheduler:
    def __init__(
        self,
        dc: DataCyclotron,
        load_weight: float = 0.05,
        data_weight: float = 1e-9,
    ):
        self.dc = dc
        self.load_weight = load_weight
        self.data_weight = data_weight
        self._outstanding: Dict[int, int] = {n: 0 for n in range(dc.config.n_nodes)}
        self.placements: Dict[int, int] = {}  # query_id -> chosen node

    # ------------------------------------------------------------------
    def bid(self, node: int, spec: QuerySpec) -> ParentNodeBid:
        """The node's quote: its workload plus the query's data needs."""
        load_cost = self._outstanding[node] * self.load_weight
        data_cost = 0.0
        for bat_id in spec.bat_ids:
            if not self.dc.has_bat(bat_id):
                # a federated query quotes only the data homed on this
                # ring; the cross-ring router fetches the rest either way
                continue
            owner = self.dc.bat_owner(bat_id)
            if owner == node:
                continue  # local disk access: no ring traffic
            hops = self.dc.ring.hops_clockwise(owner, node)
            data_cost += self.dc.bat_size(bat_id) * hops * self.data_weight
        return ParentNodeBid(node=node, load_cost=load_cost, data_cost=data_cost)

    def collect_bids(self, spec: QuerySpec) -> List[ParentNodeBid]:
        return [self.bid(n, spec) for n in range(self.dc.config.n_nodes)]

    def place(self, spec: QuerySpec) -> QuerySpec:
        bids = self.collect_bids(spec)
        best = min(bids, key=lambda b: (b.price, b.node))
        hops = self.dc.ring.hops_anticlockwise(spec.node, best.node)
        travel = hops * self.dc.config.link_delay
        self._outstanding[best.node] += 1
        self.placements[spec.query_id] = best.node
        return replace(
            spec, node=best.node, arrival=spec.arrival + travel
        )

    def place_at(self, spec: QuerySpec, node: int, extra_travel: float = 0.0) -> QuerySpec:
        self._outstanding[node] += 1
        self.placements[spec.query_id] = node
        return replace(spec, node=node, arrival=spec.arrival + extra_travel)


class ParentShip(RingFederation):
    """The federation whose submit walked the query once per question."""

    def submit(self, spec: QuerySpec):
        """Submit one query addressed to a global node index."""
        self._submitted += 1
        if not self.federated:
            return self.rings[self.active_rings[0]].submit(spec)
        unknown = [b for b in spec.bat_ids if b not in self.catalog]
        if unknown:
            raise ValueError(f"query {spec.query_id} references unknown BATs {unknown}")
        if spec.arrival < self.sim.now:
            raise ValueError(f"query {spec.query_id} arrives in the past")
        ring_id, local = self.locate(spec.node)
        ring_id, spec = self._maybe_ship(spec, ring_id, local)
        return self._admit(ring_id, spec)

    def _scheduler(self, ring_id: int):
        """Per-ring nomadic bid scheduler, created on first ship."""
        scheduler = self._schedulers.get(ring_id)
        if scheduler is None:
            scheduler = ParentBidScheduler(self.rings[ring_id])
            self._schedulers[ring_id] = scheduler
        return scheduler

    def _maybe_ship(self, spec: QuerySpec, ring_id: int, local: int):
        spec = replace(spec, node=local)
        threshold = self.config.ship_threshold
        by_estimate = False  # ship_by_estimate is gone: pinned off
        if len(self.active_rings) < 2:
            return ring_id, spec
        if not by_estimate and not 0 < threshold <= 1:
            return ring_id, spec
        bytes_by_ring: Dict[int, int] = {}
        total = 0
        for bat_id in spec.bat_ids:
            home = self.catalog.home(bat_id)
            size = self.catalog.size(bat_id)
            bytes_by_ring[home] = bytes_by_ring.get(home, 0) + size
            total += size
        if total == 0:
            return ring_id, spec
        if by_estimate:
            request_bytes = self.config.base.request_message_size
            stay_cost = total - bytes_by_ring.get(ring_id, 0)
            candidates = [
                r for r in sorted(bytes_by_ring)
                if r != ring_id and r in self.active_rings
            ]
            best = None
            best_cost = stay_cost
            for r in candidates:
                moved = request_bytes + total - bytes_by_ring[r]
                if moved < best_cost:
                    best, best_cost = r, moved
            if best is None:
                return ring_id, spec
        else:
            best = max(bytes_by_ring, key=lambda r: (bytes_by_ring[r], -r))
            if best == ring_id or bytes_by_ring[best] / total < threshold:
                return ring_id, spec
            if best not in self.active_rings:
                return ring_id, spec
        scheduler = self._scheduler(best)
        bids = scheduler.collect_bids(spec)
        winner = min(bids, key=lambda b: (b.price, b.node))
        travel = (
            self.config.link_delay()
            + self.config.base.request_message_size / self.config.link_bandwidth()
        )
        shipped = scheduler.place_at(spec, winner.node, extra_travel=travel)
        if self.bus.active:
            self.bus.publish(ev.QueryShipped(
                self.sim.now, spec.query_id, ring_id, best, winner.node
            ))
        return best, shipped


# ----------------------------------------------------------------------
# the drive
# ----------------------------------------------------------------------
SIZES = st.one_of(st.sampled_from([MB, 2 * MB, 3 * MB]), st.integers(1, 4 * MB))


@st.composite
def deployments(draw) -> Dict[str, Any]:
    n_rings = draw(st.integers(2, 5))
    nodes = draw(st.integers(3, 8))
    n_bats = draw(st.integers(1, 14))
    ring = st.integers(0, n_rings - 1)
    bats = [
        (draw(ring), draw(st.integers(0, nodes - 1)), draw(SIZES))
        for _ in range(n_bats)
    ]
    # catalog entries of zero bytes homed on no ring's disk: the only
    # way a query's total can be zero
    empties = [draw(ring) for _ in range(draw(st.integers(0, 2)))]
    catalogued = n_bats + len(empties)
    step = st.builds(
        PinStep,
        st.integers(0, catalogued - 1),
        st.sampled_from([0.0, 0.001, 0.25]),
    )
    queries = draw(st.lists(
        st.tuples(
            st.integers(0, (n_rings + 1) * nodes - 1),
            st.floats(0.0, 50.0, allow_nan=False),
            st.lists(step, min_size=1, max_size=6),
        ),
        min_size=1, max_size=10,
    ))
    return {
        "n_rings": n_rings,
        "standby": draw(st.integers(0, 1)),
        "nodes": nodes,
        "bats": bats,
        "empties": empties,
        "retired": draw(st.sets(ring, max_size=n_rings - 1)),
        "threshold": draw(st.one_of(
            st.floats(0.0, 1.0, exclude_min=True), st.just(1.0)
        )),
        "loads": {
            r: draw(st.lists(st.integers(0, 2), min_size=nodes, max_size=nodes))
            for r in draw(st.sets(ring))
        },
        "queries": queries,
    }


def build(cls, case):
    fed = cls(MultiRingConfig(
        base=DataCyclotronConfig(n_nodes=case["nodes"], seed=3),
        n_rings=case["n_rings"],
        max_rings=case["n_rings"] + case["standby"],
        nodes_per_ring=case["nodes"],
        placement_interval=0.0, splitmerge_interval=0.0,
        ship_threshold=case["threshold"],
    ))
    for bat_id, (ring, owner, size) in enumerate(case["bats"]):
        fed.add_bat(bat_id, size, ring=ring, owner=owner)
    for i, ring in enumerate(case["empties"]):
        fed.catalog.place(len(case["bats"]) + i, ring, 0)
    for ring in sorted(case["retired"]):
        fed.deactivate_ring(ring)
    for ring, loads in case["loads"].items():
        fed._scheduler(ring)._outstanding.update(enumerate(loads))
    fed.dispatched = []
    fed._admit = lambda ring_id, spec: fed.dispatched.append((ring_id, spec))
    fed.shipped = []
    fed.bus.subscribe(
        ev.QueryShipped,
        lambda e: fed.shipped.append((e.t, e.query_id, e.from_ring, e.to_ring, e.node)),
    )
    return fed


def spec_fields(spec: QuerySpec) -> dict:
    out = {f.name: getattr(spec, f.name) for f in fields(spec)}
    out["arrival"] = spec.arrival.hex()
    return out


def bid_rows(bids) -> list:
    return [(b.node, b.load_cost.hex(), b.data_cost.hex(), b.price.hex()) for b in bids]


def assert_same_books(parent: ParentShip, live: RingFederation, probe: QuerySpec) -> None:
    assert sorted(parent._schedulers) == sorted(live._schedulers)
    for ring, old in parent._schedulers.items():
        new = live._schedulers[ring]
        assert isinstance(new, BidScheduler)
        assert new.placements == old.placements
        assert new._outstanding == old._outstanding
        assert bid_rows(new.collect_bids(probe)) == bid_rows(old.collect_bids(probe))
        for node in range(old.dc.config.n_nodes):
            assert bid_rows([new.bid(node, probe)]) == bid_rows([old.bid(node, probe)])


@settings(deadline=None, max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(case=deployments())
def test_submit_ships_and_settles_as_the_parent_did(case):
    parent = build(ParentShip, case)
    live = build(RingFederation, case)
    for query_id, (node, arrival, steps) in enumerate(case["queries"]):
        spec = QuerySpec(query_id, node, arrival, steps, tail_time=0.01, tag="q", tier=1)
        parent.submit(spec)
        live.submit(spec)
        (old_ring, old), (new_ring, new) = parent.dispatched[-1], live.dispatched[-1]
        assert new_ring == old_ring
        assert spec_fields(new) == spec_fields(old)
        assert new is not spec
        assert live.shipped == parent.shipped
        assert_same_books(parent, live, spec)


@settings(deadline=None, max_examples=100, suppress_health_check=[HealthCheck.too_slow])
@given(
    nodes=st.integers(3, 8),
    bats=st.lists(st.tuples(st.integers(0, 7), SIZES), min_size=1, max_size=10),
    queries=st.lists(
        st.tuples(st.integers(0, 7), st.lists(st.integers(0, 9), min_size=1, max_size=6)),
        min_size=1, max_size=10,
    ),
    load_weight=st.sampled_from([0.05, 1e-3, 0.0]),
)
def test_place_on_one_ring_settles_as_the_parent_did(nodes, bats, queries, load_weight):
    def ring():
        dc = DataCyclotron(DataCyclotronConfig(n_nodes=nodes, seed=3))
        for bat_id, (owner, size) in enumerate(bats):
            dc.add_bat(bat_id, size, owner=owner % nodes)
        return dc

    old = ParentBidScheduler(ring(), load_weight=load_weight)
    new = BidScheduler(ring(), load_weight=load_weight)
    for query_id, (entry, reads) in enumerate(queries):
        spec = QuerySpec.simple(query_id, entry % nodes, 0.5 * query_id,
                                [b % len(bats) for b in reads],
                                [0.01] * len(reads))
        assert bid_rows(new.collect_bids(spec)) == bid_rows(old.collect_bids(spec))
        assert spec_fields(new.place(spec)) == spec_fields(old.place(spec))
        assert new.placements == old.placements
        assert new._outstanding == old._outstanding
