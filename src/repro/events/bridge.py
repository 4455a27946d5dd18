"""The metrics subscriber: routes bus events into a MetricsCollector.

This is the compatibility layer of the event-bus refactor: the protocol
code publishes typed events, and this bridge reproduces -- bit for bit
-- the collector state the old hard-wired ``self.metrics.*`` calls
produced.  The golden-equivalence test (tests/test_events_golden.py)
pins that property against a checked-in snapshot.

The collector keeps its full public API; the bridge only decides *when*
its methods run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.events import types as ev
from repro.events.bus import Bus, Counter

if TYPE_CHECKING:  # pragma: no cover
    from repro.metrics.collector import MetricsCollector

__all__ = ["attach_metrics"]


def attach_metrics(bus: Bus, metrics: "MetricsCollector") -> Callable[[], None]:
    """Subscribe ``metrics`` to every event it accounts for.

    Handlers are bound per event type; events the collector does not
    care about (``LinkTransmit``, ``SimEventFired``, ...) are simply not
    subscribed, so they keep their no-subscriber fast path.

    Returns a detach callable that removes every subscription made here
    -- the way to run a simulation with zero observers (perf baselines).
    """
    subscribed = []

    def sub(event_type, handler):
        bus.subscribe(event_type, handler)
        subscribed.append((event_type, handler))

    # --- query lifecycle ----------------------------------------------
    sub(ev.QueryRegistered,
        lambda e: metrics.query_registered(e.t, e.query_id, e.node, e.tag))
    sub(ev.QueryFinished, lambda e: metrics.query_finished(e.t, e.query_id))
    sub(ev.QueryFailed, lambda e: metrics.query_failed(e.t, e.query_id, e.error))
    sub(ev.QueryDegraded, lambda e: metrics.query_degraded(e.query_id))

    # --- BAT lifecycle -------------------------------------------------
    sub(ev.BatTagged, lambda e: metrics.tag_bat(e.bat_id, e.tag))
    sub(ev.BatLoaded, lambda e: metrics.bat_loaded(e.t, e.bat_id, e.size))
    sub(ev.BatUnloaded, lambda e: metrics.bat_unloaded(e.t, e.bat_id, e.size))
    sub(ev.BatTouched, lambda e: metrics.bat_touched(e.t, e.bat_id))
    sub(ev.BatPinned, lambda e: metrics.bat_pinned(e.t, e.bat_id, e.count))
    sub(ev.BatCycled, lambda e: metrics.bat_cycle(e.t, e.bat_id, e.cycles))
    sub(ev.BatDropped,
        lambda e: metrics.bat_dropped(e.t, e.bat_id, e.size, e.by_loss))

    # --- request propagation ------------------------------------------
    sub(ev.RequestCreated, lambda e: metrics.request_created(e.t, e.bat_id))
    sub(ev.RequestServed,
        lambda e: metrics.request_served(e.t, e.bat_id, e.latency))
    sub(ev.RequestUnavailable,
        lambda e: metrics.request_unavailable(e.t, e.bat_id))

    # --- pure counters -------------------------------------------------
    # subscribed as counters, so a producer holding a run of them (a
    # landed fast-forward flight) may add the run in one step
    def _count(attr):
        return Counter(metrics, attr).bump

    sub(ev.RequestForwarded, _count("requests_forwarded"))
    sub(ev.RequestAbsorbed, _count("requests_absorbed"))
    sub(ev.RequestReturnedToOrigin, _count("requests_returned_to_origin"))
    sub(ev.RequestResent, _count("resends"))
    sub(ev.BatForwarded, _count("bat_messages_forwarded"))
    sub(ev.LoadPostponed, _count("pending_postponed"))
    sub(ev.LoitChanged, _count("loit_changes"))

    # --- fault injection (docs/faults.md) ------------------------------
    sub(ev.BatPurged, lambda e: metrics.bat_purged(e.t, e.bat_id, e.size))
    sub(ev.BatRehomed, lambda e: metrics.bat_rehomed(e.t, e.bat_id))
    sub(ev.BatAdopted, lambda e: metrics.bat_adopted(e.t, e.bat_id))
    sub(ev.OrphanRetired,
        lambda e: metrics.orphan_retired(e.t, e.bat_id, e.size))
    sub(ev.NodeCrashed, lambda e: metrics.node_down(e.t, e.node))
    sub(ev.NodeRejoined, lambda e: metrics.node_up(e.t, e.node, e.owned_bats))

    # --- resilience (docs/resilience.md) -------------------------------
    def _failed(e):
        metrics.nodes_failed += 1
        metrics.node_down(e.t, e.node)

    sub(ev.NodeFailed, _failed)
    sub(ev.RingRepaired, lambda e: metrics.ring_repaired(e.t, e.node, e.latency))
    sub(ev.NodeSuspected, _count("node_suspicions"))
    sub(ev.NodeSuspicionCleared, _count("suspicions_cleared"))
    sub(ev.NodeConfirmedDead, _count("nodes_confirmed_dead"))
    sub(ev.ResendAbandoned, _count("resends_abandoned"))
    sub(ev.BatPromoted, _count("bats_promoted"))
    sub(ev.QueryRetried, _count("queries_retried"))
    sub(ev.QueryAbandoned, _count("queries_abandoned"))
    sub(ev.QueryShed, lambda e: metrics.query_shed(e.engine, e.reason))
    sub(ev.StaleResultDiscarded, _count("stale_results_discarded"))

    # --- closed-loop overload control (docs/overload.md) ---------------
    sub(ev.OverloadStateChanged, _count("overload_state_changes"))
    sub(ev.TierShed, lambda e: metrics.tier_shed(e.tier))
    sub(ev.RetryBudgetExhausted, _count("retry_budget_exhausted"))

    # --- multi-ring federation (docs/multiring.md) ---------------------
    sub(ev.RingLeaveVolunteered, _count("ring_leaves_volunteered"))
    sub(ev.RingJoinCalled, _count("ring_join_calls"))
    sub(ev.CrossRingRequest, _count("cross_ring_requests"))
    sub(ev.CrossRingTransfer, _count("cross_ring_transfers"))
    sub(ev.QueryShipped, _count("queries_shipped"))
    sub(ev.MigrationStarted, _count("migrations_started"))
    sub(ev.FragmentMigrated, _count("fragments_migrated"))
    sub(ev.MigrationAborted, _count("migrations_aborted"))
    sub(ev.RingSplit, _count("ring_splits"))
    sub(ev.RingsMerged, _count("rings_merged"))
    sub(ev.GatewayFailed, _count("gateway_failures"))
    sub(ev.GatewayElected, _count("gateway_elections"))
    sub(ev.ServeHandedOff, _count("serves_handed_off"))

    # --- query processing units (docs/qpu.md) --------------------------
    sub(ev.QpuQueryRouted, lambda e: metrics.qpu_routed(e.engine))
    sub(ev.KvProbeServed, lambda e: metrics.kv_probe(e.hit))
    sub(ev.StreamBatConsumed, lambda e: metrics.stream_bat_consumed(e.rows))

    # --- front-door serving tier (docs/frontdoor.md) -------------------
    sub(ev.QueryEstimated, lambda e: metrics.query_estimated())
    sub(ev.FrontDoorAdmitted, lambda e: metrics.frontdoor_admit())
    sub(ev.FrontDoorRejected, lambda e: metrics.frontdoor_reject(e.tier))
    sub(
        ev.EstimateFeedback,
        lambda e: metrics.estimate_feedback(e.predicted_bytes, e.actual_bytes),
    )

    def detach():
        for event_type, handler in subscribed:
            bus.unsubscribe(event_type, handler)

    return detach
