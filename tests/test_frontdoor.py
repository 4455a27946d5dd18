"""Unit tests for the front-door serving tier (docs/frontdoor.md).

The door is exercised against tiny rings: tier assignment and
deadlines from predicted bytes, the tier-sliced admission valve over
estimated inflight bytes, every rejection cause, the per-tier tallies
summing to the door's totals, the estimator feedback loop closing on
completion, the ``QueryShed.reason`` taxonomy threading through the
bridge into the collector, and the federation router's ship threshold.
"""

import pytest

import repro.events.types as ev
from repro.core import MB, DataCyclotronConfig
from repro.core.query import QuerySpec
from repro.dbms.executor import RingDatabase
from repro.dbms.qpu import KvLookup
from repro.frontdoor import FrontDoor, FrontDoorPolicy
from repro.frontdoor.door import DEADLINE_FLOOR, DEADLINE_SCALE
from repro.multiring import MultiRingConfig, RingFederation
from tests.qpu_harness import _base_table, _ring_config


def make_rdb(seed=0, **kwargs):
    rdb = RingDatabase(_ring_config(seed), **kwargs)
    rdb.load_table("t", _base_table(seed, 1200), rows_per_partition=100)
    return rdb


def capture(bus, *event_types):
    seen = []
    bus.subscribe_many(list(event_types), seen.append)
    return seen


# ----------------------------------------------------------------------
# policy: tiers and deadlines
# ----------------------------------------------------------------------
class TestPolicy:
    def test_smaller_footprints_get_higher_tiers(self):
        pol = FrontDoorPolicy(tier_boundaries=(1000, 100_000))
        assert pol.n_tiers == 3
        assert pol.tier_for(0) == 2
        assert pol.tier_for(1000) == 2
        assert pol.tier_for(1001) == 1
        assert pol.tier_for(100_000) == 1
        assert pol.tier_for(100_001) == 0
        assert pol.tier_for(10**9) == 0

    @pytest.mark.parametrize("admission", ["Estimate", "off", ""])
    def test_unknown_admission_mode_is_refused(self, admission):
        with pytest.raises(ValueError, match="admission"):
            FrontDoorPolicy(admission=admission)

    @pytest.mark.parametrize("bounds", [(100_000, 1000), (1000, 1000)])
    def test_boundaries_must_ascend(self, bounds):
        with pytest.raises(ValueError, match="ascending"):
            FrontDoorPolicy(tier_boundaries=bounds)

    def test_deadline_scales_with_predicted_bytes(self):
        rdb = make_rdb()
        door = FrontDoor(rdb)
        events = capture(rdb.dc.bus, ev.QueryEstimated)
        door.offer(KvLookup(table="t", key=5, column="v"))
        door.offer("SELECT * FROM t")
        assert len(events) == 2
        probe, scan = events
        assert scan.footprint_bytes > probe.footprint_bytes
        assert scan.deadline > probe.deadline
        bandwidth = float(rdb.dc.config.bandwidth)
        for e in events:
            assert e.deadline == pytest.approx(
                DEADLINE_FLOOR + DEADLINE_SCALE * e.footprint_bytes / bandwidth
            )


# ----------------------------------------------------------------------
# admission
# ----------------------------------------------------------------------
class TestAdmission:
    def test_open_valve_admits_and_ring_completes(self):
        rdb = make_rdb()
        door = FrontDoor(rdb)
        events = capture(rdb.dc.bus, ev.FrontDoorAdmitted, ev.EstimateFeedback)
        door.offer("SELECT v FROM t WHERE id < 50", node=1)
        door.offer(KvLookup(table="t", key=7, column="v"), node=2, arrival=0.1)
        assert rdb.run_until_done(max_time=120.0)
        assert door.admitted == 2 and door.rejected == 0
        admitted = [e for e in events if isinstance(e, ev.FrontDoorAdmitted)]
        feedback = [e for e in events if isinstance(e, ev.EstimateFeedback)]
        assert len(admitted) == 2 and len(feedback) == 2
        # the loop closed: every prediction matched the compiled bytes
        assert all(e.predicted_bytes == e.actual_bytes for e in feedback)
        assert door.estimated_inflight_bytes == 0
        assert all(t.outcome == "finished" for t in door.tickets.values())

    def test_budget_valve_sheds_big_queries_before_probes(self):
        rdb = make_rdb()
        # one wide scan fills a tier-0 slice; probes must still fit
        door = FrontDoor(rdb, policy=FrontDoorPolicy(
            tier_boundaries=(10_000, 20_000),
            byte_budget=40_000,
        ))
        sheds = capture(rdb.dc.bus, ev.QueryShed, ev.FrontDoorRejected)
        # 19200 B inflight (id rides along as the scan universe)
        door.offer("SELECT v FROM t")
        door.offer("SELECT * FROM t")          # 28800 B > tier-0 slice
        door.offer(KvLookup(table="t", key=3, column="v"))  # 800 B, top slice
        assert door.admitted == 2 and door.rejected == 1
        assert door.rejected_by_cause == {"budget": 1}
        rejected = [e for e in sheds if isinstance(e, ev.FrontDoorRejected)]
        assert [e.cause for e in rejected] == ["budget"]
        shed = [e for e in sheds if isinstance(e, ev.QueryShed)]
        assert [e.reason for e in shed] == ["front-door-estimate"]
        assert rdb.run_until_done(max_time=120.0)

    def test_single_query_cap_rejects_monsters(self):
        rdb = make_rdb()
        door = FrontDoor(rdb, policy=FrontDoorPolicy(
            reject_above_bytes=10_000,
        ))
        door.offer("SELECT * FROM t")
        door.offer(KvLookup(table="t", key=3, column="v"))
        assert door.rejected_by_cause == {"single-query-cap": 1}
        assert door.admitted == 1

    def test_estimate_error_is_a_rejection_cause(self):
        rdb = make_rdb()
        door = FrontDoor(rdb)
        door.offer("SELECT v FROM nowhere")
        assert door.rejected_by_cause == {"estimate-error": 1}
        assert door.offered == 1 and door.admitted == 0

    def test_admission_none_observes_but_never_rejects(self):
        rdb = make_rdb()
        door = FrontDoor(rdb, policy=FrontDoorPolicy(
            admission="none", byte_budget=1, reject_above_bytes=1,
        ))
        door.offer("SELECT * FROM t")
        door.offer("SELECT * FROM t")
        assert door.admitted == 2 and door.rejected == 0
        assert rdb.run_until_done(max_time=120.0)


# ----------------------------------------------------------------------
# tickets, tallies, reporting
# ----------------------------------------------------------------------
class TestLedger:
    def test_downstream_shed_settles_the_ticket(self):
        rdb = make_rdb()
        # the dispatcher's blind valve: admits the first (empty valve),
        # refuses the second while the first is still inflight
        rdb.byte_budget = 1
        door = FrontDoor(rdb, policy=FrontDoorPolicy(admission="none"))
        door.offer("SELECT v FROM t")
        door.offer("SELECT v FROM t")
        assert rdb.run_until_done(max_time=120.0)
        outcomes = sorted(t.outcome for t in door.tickets.values())
        assert outcomes == ["finished", "shed"]
        shed = next(t for t in door.tickets.values() if t.outcome == "shed")
        assert door.by_tier[shed.tier].shed_downstream == 1
        assert door.estimated_inflight_bytes == 0

    def test_summary_counts_offered_admitted_rejected(self):
        rdb = make_rdb()
        door = FrontDoor(rdb, policy=FrontDoorPolicy(
            reject_above_bytes=10_000,
        ))
        door.offer("SELECT * FROM t")
        door.offer(KvLookup(table="t", key=3, column="v"))
        assert rdb.run_until_done(max_time=120.0)
        summary = door.summary()
        assert summary["offered"] == 2
        assert summary["admitted"] == 1
        assert summary["rejected"] == 1
        tiers = summary["by_tier"]
        assert sum(t["offered"] for t in tiers.values()) == 2
        assert door.goodput(2, 10.0) >= 0.0

    def test_tier_tallies_sum_to_the_door_totals(self):
        rdb = make_rdb()
        door = FrontDoor(rdb)
        door.offer("SELECT v FROM nowhere")    # unpriced: rejected from tier 0
        door.offer("SELECT v FROM t")
        assert door.offered == 2 and door.rejected == 1
        tiers = door.summary()["by_tier"].values()
        assert sum(t["offered"] for t in tiers) == door.offered
        assert sum(t["rejected"] for t in tiers) == door.rejected
        assert all(t["rejected"] <= t["offered"] for t in tiers)

    def test_deterministic_replay(self):
        def run():
            rdb = make_rdb(seed=3)
            door = FrontDoor(rdb, policy=FrontDoorPolicy(
                byte_budget=30_000,
            ))
            for i in range(8):
                door.offer(
                    "SELECT v FROM t" if i % 2 else
                    KvLookup(table="t", key=i, column="v"),
                    node=i % 4, arrival=0.02 * i,
                )
            assert rdb.run_until_done(max_time=120.0)
            return door.summary(), door.accuracy_report()

        assert run() == run()


# ----------------------------------------------------------------------
# QueryShed.reason taxonomy through bridge and collector
# ----------------------------------------------------------------------
class TestShedReasons:
    def test_dispatcher_valves_name_their_reason(self):
        rdb = make_rdb()
        rdb.byte_budget = 1
        sheds = capture(rdb.dc.bus, ev.QueryShed)
        rdb.submit("SELECT v FROM t")  # empty valve: admitted, inflight
        rdb.submit("SELECT v FROM t")  # over budget behind the first
        assert [e.reason for e in sheds] == ["byte-valve"]

    def test_collector_counts_sheds_by_reason(self):
        rdb = make_rdb()
        rdb.byte_budget = 1
        door = FrontDoor(rdb, policy=FrontDoorPolicy(
            reject_above_bytes=20_000,  # SELECT v is 19200 B: admitted
        ))
        door.offer("SELECT * FROM t")   # 28800 B: front-door-estimate
        door.offer("SELECT v FROM t")   # admitted, inflight
        door.offer("SELECT v FROM t")   # admitted, then byte-valve shed
        assert rdb.run_until_done(max_time=120.0)
        by_reason = rdb.dc.metrics.queries_shed_by_reason
        assert by_reason == {"front-door-estimate": 1, "byte-valve": 1}
        assert rdb.dc.metrics.frontdoor_rejected == 1
        assert rdb.dc.metrics.queries_estimated == 3

    def test_unset_reason_keeps_legacy_repr(self):
        # bit-identity guard: an unset reason must not change the event
        shed = ev.QueryShed(1.0, 2, 3, engine="mal")
        assert shed.reason == ""


# ----------------------------------------------------------------------
# ship-vs-fetch: the federation router's fixed threshold
# ----------------------------------------------------------------------
def fed_config(**overrides) -> MultiRingConfig:
    base = DataCyclotronConfig(
        n_nodes=3, bandwidth=40 * MB, bat_queue_capacity=15 * MB,
        resend_timeout=0.5, max_resends=6, disk_latency=1e-4,
        load_all_interval=0.02, seed=11,
    )
    defaults = {
        "base": base, "n_rings": 2, "nodes_per_ring": 3,
        "gateways_per_ring": 1, "placement_interval": 0.0,
        "splitmerge_interval": 0.0,
    }
    defaults.update(overrides)
    return MultiRingConfig(**defaults)


class TestShipByEstimate:
    def test_estimate_mode_off_keeps_threshold_rule(self):
        fed = RingFederation(fed_config(ship_threshold=1.1))
        for bat_id in range(12):
            fed.add_bat(bat_id, MB, ring=bat_id % 2)
        shipped = []
        fed.bus.subscribe(ev.QueryShipped, shipped.append)
        fed.submit(QuerySpec.simple(1, node=0, arrival=0.0,
                                    bat_ids=[1, 3],
                                    processing_times=[0.01, 0.01]))
        assert fed.run_until_done(max_time=120.0)
        assert shipped == []  # threshold > 1 disables shipping entirely
