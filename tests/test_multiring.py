"""Unit tests for the multi-ring federation (docs/multiring.md).

Each mechanism is exercised in isolation on tiny federations: the
global catalog, cross-ring fetches through gateways, nomadic query
shipping, LOI-driven fragment migration with its quiesce/cutover
protocol, split/merge, gateway failover, and the typed events every
one of them publishes.
"""

import pytest

from repro.core import MB, DataCyclotronConfig
from repro.core.query import QuerySpec
from repro.events import types as ev
from repro.multiring import (
    GlobalCatalog,
    MultiRingConfig,
    RingFederation,
)

SEED = 11


def small_config(**overrides) -> MultiRingConfig:
    base = DataCyclotronConfig(
        n_nodes=3, bandwidth=40 * MB, bat_queue_capacity=15 * MB,
        resend_timeout=0.5, max_resends=6, disk_latency=1e-4,
        load_all_interval=0.02, seed=SEED,
    )
    defaults = {
        "base": base, "n_rings": 2, "nodes_per_ring": 3, "gateways_per_ring": 1,
        "placement_interval": 0.0, "splitmerge_interval": 0.0,
    }
    defaults.update(overrides)
    return MultiRingConfig(**defaults)


def populate(fed: RingFederation, n_bats: int = 12) -> None:
    for bat_id in range(n_bats):
        fed.add_bat(bat_id, MB, ring=bat_id % len(fed.active_rings))


# ----------------------------------------------------------------------
# catalog
# ----------------------------------------------------------------------
class TestGlobalCatalog:
    def test_place_home_move(self):
        cat = GlobalCatalog()
        cat.place(1, 0, MB)
        cat.place(2, 1, 2 * MB)
        assert cat.home(1) == 0 and cat.home(2) == 1
        assert cat.maybe_home(99) is None
        assert 1 in cat and 99 not in cat
        assert len(cat) == 2
        assert cat.bats_on(1) == [2]
        assert cat.bytes_on(0) == MB
        cat.move(1, 1)
        assert cat.home(1) == 1
        assert cat.bytes_on(1) == 3 * MB

    def test_double_place_rejected(self):
        cat = GlobalCatalog()
        cat.place(1, 0, MB)
        with pytest.raises(ValueError):
            cat.place(1, 1, MB)

    def test_migration_generations_guard_late_shipments(self):
        cat = GlobalCatalog()
        cat.place(1, 0, MB)
        gen = cat.begin_migration(1)
        assert cat.is_migrating(1) and cat.migration_gen(1) == gen
        with pytest.raises(ValueError):
            cat.begin_migration(1)  # one shipment at a time
        cat.end_migration(1)
        assert not cat.is_migrating(1)
        # a fresh migration gets a strictly newer generation: a shipment
        # stamped with the old one is recognisably stale
        assert cat.begin_migration(1) > gen


# ----------------------------------------------------------------------
# configuration + topology
# ----------------------------------------------------------------------
class TestConfigAndTopology:
    def test_multi_ring_requires_gateways(self):
        with pytest.raises(ValueError):
            small_config(gateways_per_ring=0)

    def test_ring_configs_get_distinct_seeds(self):
        config = small_config()
        assert config.ring_config(0).seed == SEED
        assert config.ring_config(1).seed == SEED + 1
        assert config.ring_config(0).n_nodes == 3

    def test_global_node_addressing_round_trips(self):
        fed = RingFederation(small_config())
        for ring_id in range(2):
            for local in range(3):
                g = fed.global_node(ring_id, local)
                assert fed.locate(g) == (ring_id, local)

    @pytest.mark.parametrize("node", [-1, 8, 11, 100])
    def test_locate_rejects_nodes_that_do_not_exist(self, node):
        """2 x 4 nodes: a node outside [0, 8) is no ring's, active or not."""
        fed = RingFederation(small_config(nodes_per_ring=4))
        fed.add_bat(0, MB)
        with pytest.raises(ValueError, match="node"):
            fed.locate(node)
        with pytest.raises(ValueError, match="node"):
            fed.submit(QuerySpec.simple(0, node=node, arrival=0.0,
                                        bat_ids=[0], processing_times=[0.001]))
        assert fed.summary()["submitted"] == 0

    def test_locate_remaps_an_inactive_rings_node(self):
        fed = RingFederation(small_config(max_rings=3))
        assert fed.locate(fed.global_node(2, 1)) == (0, 1)
        fed.activate_ring(2)
        assert fed.locate(fed.global_node(2, 1)) == (2, 1)

    @pytest.mark.parametrize("federated", [True, False])
    def test_a_refused_submit_is_not_counted(self, federated):
        shape = {} if federated else {"n_rings": 1, "gateways_per_ring": 0}
        fed = RingFederation(small_config(**shape))
        populate(fed, n_bats=2)
        for query_id in range(4):
            fed.submit(QuerySpec.simple(query_id, node=0, arrival=1.0,
                                        bat_ids=[0], processing_times=[0.001]))
        fed.run(until=0.5)
        refused = [
            QuerySpec.simple(10, node=0, arrival=1.0, bat_ids=[99],
                             processing_times=[0.001]),   # unknown BAT
            QuerySpec.simple(11, node=0, arrival=0.1, bat_ids=[0],
                             processing_times=[0.001]),   # in the past
            QuerySpec.simple(12, node=-1, arrival=1.0, bat_ids=[0],
                             processing_times=[0.001]),   # no such node
        ]
        for spec in refused:
            with pytest.raises(ValueError):
                fed.submit(spec)
        assert fed.summary()["submitted"] == 4
        assert fed.run_until_done(max_time=30.0)
        assert fed.summary()["completed"] == 4

    def test_add_bat_round_robins_over_active_rings(self):
        fed = RingFederation(small_config())
        for b in range(4):
            fed.add_bat(b, MB)
        assert [fed.catalog.home(b) for b in range(4)] == [0, 1, 0, 1]

    def test_standby_rings_activate_on_demand(self):
        fed = RingFederation(small_config(max_rings=3))
        assert fed.active_rings == [0, 1]
        standby = fed.next_standby_ring()
        assert standby == 2
        fed.activate_ring(2)
        assert fed.active_rings == [0, 1, 2]
        assert fed.next_standby_ring() is None
        fed.deactivate_ring(2)
        assert fed.active_rings == [0, 1]


# ----------------------------------------------------------------------
# cross-ring fetches
# ----------------------------------------------------------------------
class TestCrossRingFetch:
    def test_remote_bat_is_fetched_through_the_gateways(self):
        # high ship threshold: the query stays put and pulls the data
        fed = RingFederation(small_config(ship_threshold=1.1))
        populate(fed)
        transfers = []
        fed.bus.subscribe(ev.CrossRingTransfer, transfers.append)
        # node 0 (ring 0) touches BAT 1 homed on ring 1
        fed.submit(QuerySpec.simple(1, node=0, arrival=0.0,
                                    bat_ids=[0, 1], processing_times=[0.01, 0.01]))
        assert fed.run_until_done(max_time=120.0)
        assert fed.failed_queries == 0
        assert transfers, "the remote pin must travel ring 1 -> ring 0"
        assert {(t.from_ring, t.to_ring) for t in transfers} == {(1, 0)}
        stats = fed.router.stats()
        assert stats["fetches_served"] >= 1
        assert stats["fetch_mean_latency"] > 0.0

    def test_concurrent_fetches_for_one_bat_are_absorbed(self):
        fed = RingFederation(small_config(ship_threshold=1.1))
        populate(fed)
        requests = []
        fed.bus.subscribe(ev.CrossRingRequest, requests.append)
        for q in range(3):  # three ring-0 queries, same remote BAT
            fed.submit(QuerySpec.simple(q, node=q % 3, arrival=0.0,
                                        bat_ids=[0, 1], processing_times=[0.01, 0.01]))
        assert fed.run_until_done(max_time=120.0)
        assert fed.failed_queries == 0
        # absorption: concurrent interest collapses onto in-flight fetches
        assert len([r for r in requests if not r.resend]) \
            <= fed.router.stats()["fetches_served"] + 1

    def test_query_touching_only_remote_data_is_shipped(self):
        fed = RingFederation(small_config(ship_threshold=0.6))
        populate(fed)
        shipped = []
        fed.bus.subscribe(ev.QueryShipped, shipped.append)
        fed.submit(QuerySpec.simple(1, node=0, arrival=0.0,
                                    bat_ids=[1, 3], processing_times=[0.01, 0.01]))
        assert fed.run_until_done(max_time=120.0)
        assert fed.failed_queries == 0
        assert [(s.from_ring, s.to_ring) for s in shipped] == [(0, 1)]
        # shipping replaces fetching: no cross-ring BAT traffic at all
        assert fed.router.stats()["fetches_dispatched"] == 0

    def test_bid_loads_count_down_only_the_queries_the_ring_placed(self):
        # ring 1's bids read a load count per node: the two long shipped
        # queries on its node 0 must stay counted while four short
        # queries that entered there (never placed by its bids) finish
        fed = RingFederation(small_config(ship_threshold=0.6))
        for bat_id in range(6):
            fed.add_bat(bat_id, MB, ring=bat_id // 3)
        shipped = []
        fed.bus.subscribe(ev.QueryShipped, shipped.append)
        for q in range(4):
            fed.submit(QuerySpec.simple(q, node=0, arrival=0.0,
                                        bat_ids=[3 + q % 3], processing_times=[5.0]))
        for q in range(4, 8):
            fed.submit(QuerySpec.simple(q, node=3, arrival=0.0,
                                        bat_ids=[3], processing_times=[0.001]))
        assert [(s.to_ring, s.node) for s in shipped] == [(1, 0), (1, 1), (1, 2), (1, 0)]
        bids = fed._schedulers[1]
        probe = QuerySpec.simple(99, node=0, arrival=0.0, bat_ids=[3],
                                 processing_times=[0.01])
        fed.run(until=1.0)
        assert fed.completed_queries == 4  # the short ones
        assert [b.load_cost for b in bids.collect_bids(probe)] == [
            2 * bids.load_weight, bids.load_weight, bids.load_weight,
        ]
        assert fed.run_until_done(max_time=60.0)
        assert [b.load_cost for b in bids.collect_bids(probe)] == [0.0] * 3


# ----------------------------------------------------------------------
# fragment migration
# ----------------------------------------------------------------------
class TestMigration:
    def test_forced_migration_re_homes_the_fragment(self):
        fed = RingFederation(small_config(placement_interval=0.25))
        populate(fed)
        migrated = []
        fed.bus.subscribe(ev.FragmentMigrated, migrated.append)
        fed.placement.request_migration(0, 1)  # BAT 0: ring 0 -> ring 1
        fed.submit(QuerySpec.simple(1, node=0, arrival=3.0,
                                    bat_ids=[2], processing_times=[0.01]))
        assert fed.run_until_done(max_time=120.0)
        assert [(m.bat_id, m.from_ring, m.to_ring) for m in migrated] == [(0, 0, 1)]
        assert fed.catalog.home(0) == 1
        assert fed.rings[1].has_bat(0) and not fed.rings[0].has_bat(0)
        # the moved fragment is fully owned by its new ring
        from repro.faults.invariants import check_ownership
        assert check_ownership(fed.rings[0]) == []
        assert check_ownership(fed.rings[1]) == []

    def test_interest_draws_fragments_to_the_asking_ring(self):
        fed = RingFederation(small_config(
            placement_interval=0.25, migration_patience=2,
            migration_min_interest=0.1, migration_hysteresis=1.5,
        ))
        populate(fed)
        moved = []
        fed.bus.subscribe(ev.FragmentMigrated, moved.append)
        # ring 1 hammers BAT 0 (homed on ring 0); ring 0 never touches it
        for q in range(8):
            fed.submit(QuerySpec.simple(
                100 + q, node=3 + q % 3, arrival=0.2 * q,
                bat_ids=[0, 1], processing_times=[0.01, 0.01],
            ))
        assert fed.run_until_done(max_time=120.0)
        fed.run(until=fed.sim.now + 5.0)  # a few more placement ticks
        assert fed.failed_queries == 0
        assert (0, 0, 1) in [(m.bat_id, m.from_ring, m.to_ring) for m in moved]
        assert fed.catalog.home(0) == 1

    def test_migration_waits_for_quiescence(self):
        fed = RingFederation(small_config())
        populate(fed)
        ring = fed.rings[0]
        # an idle BAT is quiescent; one with an outstanding request is not
        assert fed.placement.quiescent(0, 0)
        ring.nodes[1].request(query_id=7, bat_ids=[0])
        assert not fed.placement.quiescent(0, 0)


# ----------------------------------------------------------------------
# split / merge
# ----------------------------------------------------------------------
class TestSplitMerge:
    def test_split_activates_a_standby_and_sheds_fragments(self):
        fed = RingFederation(small_config(max_rings=3, placement_interval=0.25))
        populate(fed)
        splits = []
        fed.bus.subscribe(ev.RingSplit, splits.append)
        fed.splitmerge._split(0)
        assert 2 in fed.active_rings
        assert [(s.from_ring, s.new_ring) for s in splits] == [(0, 2)]
        # the queued migrations drain on the placement ticks
        fed.submit(QuerySpec.simple(1, node=0, arrival=3.0,
                                    bat_ids=[2], processing_times=[0.01]))
        assert fed.run_until_done(max_time=120.0)
        assert fed.catalog.bats_on(2), "the standby ring received fragments"

    def test_merge_drains_the_ring_and_retires_it(self):
        fed = RingFederation(small_config(max_rings=2, placement_interval=0.25))
        populate(fed, n_bats=6)
        merges = []
        fed.bus.subscribe(ev.RingsMerged, merges.append)
        fed.splitmerge._merge(1)
        assert fed.active_rings == [0]
        fed.submit(QuerySpec.simple(1, node=0, arrival=3.0,
                                    bat_ids=[2], processing_times=[0.01]))
        assert fed.run_until_done(max_time=120.0)
        assert [(m.from_ring, m.into_ring) for m in merges] == [(1, 0)]
        assert fed.catalog.bats_on(1) == []
        assert sorted(fed.catalog.bats_on(0)) == list(range(6))

    def test_the_last_ring_never_merges_away(self):
        fed = RingFederation(small_config(max_rings=2))
        fed.deactivate_ring(1)
        fed.splitmerge._merge(0)
        assert fed.active_rings == [0]


# ----------------------------------------------------------------------
# gateway failover
# ----------------------------------------------------------------------
class TestGatewayFailover:
    def test_gateway_crash_elects_a_replacement(self):
        fed = RingFederation(small_config())
        populate(fed)
        failed, elected = [], []
        fed.bus.subscribe(ev.GatewayFailed, failed.append)
        fed.bus.subscribe(ev.GatewayElected, elected.append)
        old = fed.router.gateway(1)
        fed.submit(QuerySpec.simple(1, node=0, arrival=2.0,
                                    bat_ids=[0], processing_times=[0.01]))
        fed.sim.schedule(1.0, fed.rings[1].crash_node, old)
        assert fed.run_until_done(max_time=120.0)
        assert [(g.ring, g.node) for g in failed] == [(1, old)]
        new = fed.router.gateway(1)
        assert new != old
        assert (1, new) in [(g.ring, g.node) for g in elected]

    def test_fetch_survives_gateway_crash(self):
        fed = RingFederation(small_config(ship_threshold=1.1))
        populate(fed)
        old = fed.router.gateway(1)
        # BAT 3 lives on ring 1 but is NOT owned by the dying gateway --
        # only the forwarding duty is lost, not the data itself
        assert fed.rings[1].bat_owner(3) != old
        fed.sim.schedule(0.9, fed.rings[1].crash_node, old)
        # arrives just after the crash; must route via the new gateway
        fed.submit(QuerySpec.simple(1, node=0, arrival=1.0,
                                    bat_ids=[0, 3], processing_times=[0.01, 0.01]))
        assert fed.run_until_done(max_time=120.0)
        assert fed.failed_queries == 0
        assert fed.router.stats()["fetches_served"] >= 1


# ----------------------------------------------------------------------
# pulsating-controller bus events (satellite 1)
# ----------------------------------------------------------------------
class TestPulsatingEvents:
    def test_leave_and_join_decisions_are_published(self):
        from repro.events.bridge import attach_metrics
        from repro.events.bus import Bus
        from repro.metrics.collector import MetricsCollector
        from repro.xtn.pulsating import PulsatingController

        bus = Bus()
        metrics = MetricsCollector()
        attach_metrics(bus, metrics)
        leaves, joins = [], []
        bus.subscribe(ev.RingLeaveVolunteered, leaves.append)
        bus.subscribe(ev.RingJoinCalled, joins.append)
        ctl = PulsatingController(
            leave_threshold=0.2, join_threshold=0.8, patience=2,
            bus=bus, ring=5, clock=lambda: 42.0,
        )
        assert ctl.observe(0, 0.95) == "join"
        assert ctl.observe(1, 0.1) is None     # first idle tick: patience
        assert ctl.observe(1, 0.1) == "leave"  # second: volunteers
        assert [(e.t, e.node, e.ring) for e in joins] == [(42.0, 0, 5)]
        assert [(e.t, e.node, e.ring) for e in leaves] == [(42.0, 1, 5)]
        assert metrics.ring_join_calls == 1
        assert metrics.ring_leaves_volunteered == 1

    def test_controller_without_bus_stays_silent(self):
        from repro.xtn.pulsating import PulsatingController

        ctl = PulsatingController(leave_threshold=0.2, join_threshold=0.8,
                                  patience=1)
        assert ctl.observe(0, 0.05) == "leave"  # no bus, no crash


# ----------------------------------------------------------------------
# federated retry
# ----------------------------------------------------------------------
class TestFederatedRetry:
    def test_query_on_crashed_node_is_retried_elsewhere(self):
        config = small_config()
        config.base.resilience = True
        config.base.replication_k = 2
        fed = RingFederation(config)
        populate(fed)
        retried = []
        fed.bus.subscribe(ev.QueryRetried, retried.append)
        fed.sim.schedule(0.5, fed.rings[0].crash_node, 1)
        # arrives on the already-dead node; the federation re-routes it
        fed.submit(QuerySpec.simple(1, node=1, arrival=1.0,
                                    bat_ids=[0], processing_times=[0.01]))
        assert fed.run_until_done(max_time=120.0)
        assert fed.failed_queries == 0
        assert retried and all(r.query_id == 1 for r in retried)

    def test_exhausted_retries_publish_query_abandoned(self):
        config = small_config()
        config.base.resilience = True
        config.base.retry_max_attempts = 1  # first failure is final
        fed = RingFederation(config)
        populate(fed)
        abandoned = []
        fed.bus.subscribe(ev.QueryAbandoned, abandoned.append)
        fed.sim.schedule(0.5, fed.rings[0].crash_node, 1)
        # lands on the dead node with no retry budget left
        fed.submit(QuerySpec.simple(1, node=1, arrival=1.0,
                                    bat_ids=[0], processing_times=[0.01]))
        fed.run_until_done(max_time=60.0)
        assert fed.failed_queries == 1
        assert [a.query_id for a in abandoned] == [1]
