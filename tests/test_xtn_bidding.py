"""Tests for nomadic query placement via cost bids (section 6.1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import QuerySpec
from repro.xtn.bidding import BidScheduler

from helpers import MB, build_dc


def make_scheduler(**kwargs):
    dc = build_dc(n_nodes=4, bats={i: MB for i in range(8)})
    return dc, BidScheduler(dc, **kwargs)


def spec_for(bats, node=0, qid=0, arrival=0.0):
    return QuerySpec.simple(qid, node=node, arrival=arrival,
                            bat_ids=bats, processing_times=[0.01] * len(bats))


def test_bid_zero_for_owner_with_no_load():
    dc, sched = make_scheduler()
    # BAT 2 is owned by node 2 (round robin on 4 nodes)
    bid = sched.bid(2, spec_for([2]))
    assert bid.price == 0.0


def test_bid_data_cost_grows_with_distance():
    dc, sched = make_scheduler()
    # owner of BAT 1 is node 1; clockwise distance to node 2 is 1,
    # to node 0 is 3
    near = sched.bid(2, spec_for([1]))
    far = sched.bid(0, spec_for([1]))
    assert far.data_cost > near.data_cost > 0


def test_place_picks_owner_when_idle():
    dc, sched = make_scheduler()
    placed = sched.place(spec_for([3], node=0))
    assert placed.node == 3  # BAT 3's owner bids zero


def test_load_feedback_spreads_queries():
    dc, sched = make_scheduler(load_weight=100.0, data_weight=1e-12)
    # with data cost negligible and load dominant, placements round-robin
    for q in range(8):
        sched.place(spec_for([1], qid=q))
    counts = sched.placement_counts()
    assert max(counts.values()) - min(counts.values()) <= 1


def test_query_finished_releases_load():
    dc, sched = make_scheduler(load_weight=10.0, data_weight=0.0)
    first = sched.place(spec_for([1], qid=0))
    # finish it; the same node should win again
    sched.query_finished(first)
    second = sched.place(spec_for([1], qid=1))
    assert second.node == first.node


def test_query_finished_counts_each_placed_query_down_once():
    dc, sched = make_scheduler(load_weight=1.0, data_weight=0.0)
    first = sched.place_at(spec_for([1], qid=0), 2)
    sched.place_at(spec_for([1], qid=1), 2)
    sched.query_finished(spec_for([1], qid=7, node=2))  # never placed here
    sched.query_finished(first)
    sched.query_finished(first)  # ends again after a retry
    assert sched.bid(2, spec_for([1])).load_cost == 1.0


def test_nomadic_travel_delays_arrival():
    dc, sched = make_scheduler()
    spec = spec_for([3], node=0, arrival=1.0)
    placed = sched.place(spec)
    hops = dc.ring.hops_anticlockwise(0, placed.node)
    assert placed.arrival == pytest.approx(1.0 + hops * dc.config.link_delay)


def test_submit_placed_end_to_end():
    dc, sched = make_scheduler()
    specs = [spec_for([(q + 1) % 8], qid=q, arrival=0.01 * q) for q in range(6)]
    count = sched.submit_placed(specs)
    assert count == 6
    assert dc.run_until_done(max_time=60.0)
    assert dc.metrics.finished_count() == 6


def test_placement_beats_fixed_node_on_skewed_entry():
    """All queries entering at node 0 spread out and finish faster than
    unplaced execution when CPU is the bottleneck."""
    bats = {i: MB for i in range(8)}

    def run(place: bool) -> float:
        dc = build_dc(n_nodes=4, bats=bats, cpu_constrained=True,
                      cores_per_node=1)
        sched = BidScheduler(dc, load_weight=1.0, data_weight=1e-10)
        specs = [
            QuerySpec.simple(q, node=0, arrival=0.0, bat_ids=[(q + 1) % 8],
                             processing_times=[0.5])
            for q in range(8)
        ]
        if place:
            sched.submit_placed(specs)
        else:
            dc.submit_all(specs)
        assert dc.run_until_done(max_time=120.0)
        return max(r.finished_at for r in dc.metrics.queries.values())

    assert run(place=True) < run(place=False)


# ----------------------------------------------------------------------
# the dynamic split decision (section 6.1, full nomadic phase)
# ----------------------------------------------------------------------
def test_place_split_keeps_cheap_query_whole():
    dc, sched = make_scheduler()
    # query lands on the data owner: its bid is zero -> no split
    placed = sched.place_split(spec_for([3, 7], node=0), split_threshold=0.5)
    assert len(placed) == 1
    assert dc.run_until_done(max_time=60.0)


def test_place_split_splits_expensive_query():
    dc, sched = make_scheduler(load_weight=10.0)
    # preload every node so all bids are expensive
    for q in range(8):
        sched.place(spec_for([1], qid=100 + q))
    done = []
    placed = sched.place_split(
        spec_for([1, 2, 3, 5], node=0, qid=1),
        max_subqueries=4,
        split_threshold=0.5,
        on_done=done.append,
    )
    assert len(placed) == 4
    all_bats = sorted(b for p in placed for b in p.bat_ids)
    assert all_bats == [1, 2, 3, 5]
    assert dc.run_until_done(max_time=120.0)
    dc.run(until=dc.now + 0.1)
    assert len(done) == 1


def test_place_split_caps_at_step_count():
    dc, sched = make_scheduler(load_weight=10.0)
    sched.place(spec_for([1], qid=50))
    placed = sched.place_split(
        spec_for([1, 2], node=0, qid=1), max_subqueries=8, split_threshold=0.0
    )
    assert len(placed) <= 2
    assert dc.run_until_done(max_time=60.0)


def test_place_split_single_step_never_splits():
    dc, sched = make_scheduler(load_weight=10.0)
    sched.place(spec_for([1], qid=50))
    placed = sched.place_split(
        spec_for([2], node=0, qid=1), split_threshold=0.0
    )
    assert len(placed) == 1
    assert dc.run_until_done(max_time=60.0)


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 8 * MB), min_size=1, max_size=8),
    picks=st.lists(st.integers(0, 7), min_size=1, max_size=6),
    weight=st.floats(1e-12, 1e-6),
)
def test_a_quote_sums_data_costs_in_bat_order(sizes, picks, weight):
    """``size * hops * data_weight`` per BAT, added in the query's BAT
    order: the float sums every placement and ship decision reads."""
    dc = build_dc(n_nodes=5, bats=dict(enumerate(sizes)))
    sched = BidScheduler(dc, data_weight=weight)
    bat_ids = [b % len(sizes) for b in picks]
    _load, data = sched.quote(bat_ids)
    for node in range(5):
        total = 0.0
        for bat_id in bat_ids:
            hops = (node - dc.bat_owner(bat_id)) % 5
            if hops:
                total += dc.bat_size(bat_id) * hops * weight
        assert data[node] == total


def test_the_cheapest_quote_ties_to_the_least_node():
    dc, sched = make_scheduler()
    # nothing this query reads lives on the ring and nothing is booked:
    # every node quotes zero
    assert sched.cheapest([99]) == (0.0, 0)
    sched.book(0, 0)
    assert sched.cheapest([99]) == (0.0, 1)
