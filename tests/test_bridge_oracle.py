"""The collector's own event map against the bridge it replaced.

``ParentCollector`` and ``parent_attach_metrics`` are the
``MetricsCollector`` and ``attach_metrics`` from before the collector
declared what it counts (``COUNTS`` / ``HANDLERS``), kept verbatim but
for their names: 60 hand-written subscriptions, positional handlers.
Every deployment the runs below build gets one attached beside its live
collector, on the same bus; the callers that bypass the bus (the
executor's legacy-MAL and zero-observer registrations, the update
coordinator) are teed into it.  After the run, every attribute both
collectors keep must be equal -- floats by ``repr``, step series by their
points, per-BAT and per-query records field by field, dicts in their
insertion (event) order -- and so must the derived artefacts.  The only
attributes the parent keeps beyond the live collector are the five
counters that duplicated their owners' own counts.
"""

from dataclasses import fields, is_dataclass
from typing import Callable, Dict, List, Optional, Tuple

import pytest

import repro.core.ring
import repro.multiring.federation
from repro.core import DataCyclotronConfig, QuerySpec
from repro.dbms.executor import RingDatabase
from repro.events import types as ev
from repro.events.bridge import attach_metrics
from repro.events.bus import Bus, Counter
from repro.faults import ChaosHarness
from repro.frontdoor import FrontDoor, FrontDoorPolicy
from repro.metrics.collector import BatStats, QueryRecord
from repro.metrics.histogram import Histogram
from repro.metrics.timeseries import StepSeries, binned_cumulative
from repro.multiring.chaos import MultiRingChaosHarness
from repro.resilience.overload import OverloadController, OverloadPolicy
from repro.workloads.frontdoor import FrontDoorWorkload
from repro.workloads.suite import run_scenario
from repro.xtn.pulsating import PulsatingController
from repro.xtn.updates import UpdateCoordinator

from helpers import MB, build_dc

# kept only by their owners now
DEAD = {
    "queries_shed_by_tier",        # OverloadController.shed_by_tier
    "overload_state_changes",      # OverloadController.level_changes
    "retry_budget_exhausted",      # QueryRetrier.budget_exhausted
    "frontdoor_admitted",          # FrontDoor.admitted
    "frontdoor_rejected_by_tier",  # FrontDoor.by_tier
}


# ----------------------------------------------------------------------
# the parent's collector and bridge, verbatim but for their names
# ----------------------------------------------------------------------
class ParentCollector:
    """Accumulates everything the section 5 experiments report."""

    def __init__(self) -> None:
        self.queries: Dict[int, QueryRecord] = {}
        self.bats: Dict[int, BatStats] = {}
        # ring load step series (Figures 7a/7b); per-tag series for Fig. 8a
        self.ring_bytes = StepSeries()
        self.ring_bats = StepSeries()
        self.ring_bytes_by_tag: Dict[str, StepSeries] = {}
        self._bat_tags: Dict[int, str] = {}
        # counters
        self.requests_sent = 0
        self.requests_absorbed = 0
        self.requests_forwarded = 0
        self.requests_returned_to_origin = 0
        self.resends = 0
        self.bat_messages_forwarded = 0
        self.droptail_drops = 0
        self.loss_drops = 0
        self.pending_postponed = 0
        self.loit_changes = 0
        # fault-injection counters (docs/faults.md)
        self.crash_drops = 0            # messages purged from a dead node's queues
        self.bats_rehomed = 0           # ownership transfers off a dead node
        self.bats_adopted = 0           # circulating copies adopted by a new owner
        self.orphans_retired = 0        # dead-owner copies pulled out of the ring
        self.requests_unavailable = 0   # requests failed with DATA_UNAVAILABLE
        # resilience counters (docs/resilience.md)
        self.nodes_failed = 0           # silent failures (fail_node)
        self.node_suspicions = 0        # NodeSuspected events
        self.suspicions_cleared = 0     # NodeSuspicionCleared events
        self.nodes_confirmed_dead = 0   # NodeConfirmedDead events
        self.ring_repairs = 0           # detector-driven ring repairs
        self.repair_latencies: List[float] = []  # failure -> repair, seconds
        self.resends_abandoned = 0      # resend escalations that gave up
        self.bats_promoted = 0          # replica owners promoted to primary
        self.queries_retried = 0        # retry attempts dispatched (>= 2nd)
        self.queries_abandoned = 0      # retry budget/deadline exhausted
        self.queries_shed = 0           # admission valve fast-fails
        self.stale_results_discarded = 0  # superseded attempt completions
        # closed-loop overload control counters (docs/overload.md)
        self.queries_shed_by_engine: Dict[str, int] = {}  # byte-valve refusals
        self.queries_shed_by_tier: Dict[int, int] = {}    # brownout refusals
        self.queries_shed_by_reason: Dict[str, int] = {}  # who refused (docs/frontdoor.md)
        self.overload_state_changes = 0  # OverloadStateChanged events
        self.retry_budget_exhausted = 0  # retry token bucket ran dry
        # multi-ring federation counters (docs/multiring.md)
        self.ring_leaves_volunteered = 0  # RingLeaveVolunteered events
        self.ring_join_calls = 0        # RingJoinCalled events
        self.cross_ring_requests = 0    # fetches dispatched to another ring
        self.cross_ring_transfers = 0   # BAT copies shipped between rings
        self.queries_shipped = 0        # whole queries moved to another ring
        self.migrations_started = 0     # fragment re-homings begun
        self.fragments_migrated = 0     # fragment re-homings completed
        self.migrations_aborted = 0     # re-homings rolled back mid-flight
        self.ring_splits = 0            # standby rings activated
        self.rings_merged = 0           # underutilized rings drained
        self.gateway_failures = 0       # gateway nodes lost
        self.gateway_elections = 0      # replacement gateways designated
        self.serves_handed_off = 0      # in-flight serves moved off dead gateways

        self.queries_by_engine: Dict[str, int] = {}  # QPU routing counts
        self.kv_probes = 0              # KV point lookups served
        self.kv_misses = 0              # lookups for unknown keys
        self.stream_bats_consumed = 0   # partitions folded in cycle order
        self.stream_rows_consumed = 0   # rows behind those folds
        # front-door serving tier counters (docs/frontdoor.md)
        self.queries_estimated = 0      # requests priced before compilation
        self.frontdoor_admitted = 0     # requests passed into the dispatcher
        self.frontdoor_rejected = 0     # requests refused at the door
        self.frontdoor_rejected_by_tier: Dict[int, int] = {}
        self.estimate_feedback_count = 0  # predicted-vs-actual closures
        self.estimate_exact_bytes = 0     # ... where prediction was exact
        # per-node downtime intervals: node -> [(down_at, up_at | None)]
        self.downtime: Dict[int, List[List[Optional[float]]]] = {}
        # recovery latency: crash/rejoin -> first re-load of an affected BAT
        self._recovering_bats: Dict[int, float] = {}
        self.recovery_latencies: List[float] = []

    # ------------------------------------------------------------------
    # query lifecycle
    # ------------------------------------------------------------------
    def query_registered(self, t: float, query_id: int, node: int, tag: str = "") -> None:
        self.queries[query_id] = QueryRecord(
            query_id=query_id, node=node, registered_at=t, tag=tag
        )

    def query_finished(self, t: float, query_id: int) -> None:
        self.queries[query_id].finished_at = t

    def query_failed(self, t: float, query_id: int, error: str) -> None:
        rec = self.queries[query_id]
        rec.finished_at = t
        rec.failed = True
        rec.error = error

    # ------------------------------------------------------------------
    # query processing units (docs/qpu.md)
    # ------------------------------------------------------------------
    def qpu_routed(self, engine: str) -> None:
        self.queries_by_engine[engine] = self.queries_by_engine.get(engine, 0) + 1

    def kv_probe(self, hit: bool) -> None:
        self.kv_probes += 1
        if not hit:
            self.kv_misses += 1

    def stream_bat_consumed(self, rows: int) -> None:
        self.stream_bats_consumed += 1
        self.stream_rows_consumed += rows

    # ------------------------------------------------------------------
    # front-door serving tier (docs/frontdoor.md)
    # ------------------------------------------------------------------
    def query_estimated(self) -> None:
        self.queries_estimated += 1

    def frontdoor_admit(self) -> None:
        self.frontdoor_admitted += 1

    def frontdoor_reject(self, tier: int) -> None:
        self.frontdoor_rejected += 1
        self.frontdoor_rejected_by_tier[tier] = (
            self.frontdoor_rejected_by_tier.get(tier, 0) + 1
        )

    def estimate_feedback(self, predicted_bytes: int, actual_bytes: int) -> None:
        self.estimate_feedback_count += 1
        if predicted_bytes == actual_bytes:
            self.estimate_exact_bytes += 1

    # ------------------------------------------------------------------
    # closed-loop overload control (docs/overload.md)
    # ------------------------------------------------------------------
    def query_shed(self, engine: str = "", reason: str = "") -> None:
        self.queries_shed += 1
        if engine:
            self.queries_shed_by_engine[engine] = (
                self.queries_shed_by_engine.get(engine, 0) + 1
            )
        if reason:
            self.queries_shed_by_reason[reason] = (
                self.queries_shed_by_reason.get(reason, 0) + 1
            )

    def tier_shed(self, tier: int) -> None:
        self.queries_shed_by_tier[tier] = (
            self.queries_shed_by_tier.get(tier, 0) + 1
        )

    def query_degraded(self, query_id: int) -> None:
        """The query needed fault recovery (resend / re-home / orphan serve)."""
        rec = self.queries.get(query_id)
        if rec is not None:
            rec.degraded = True

    def degraded_count(self) -> int:
        return sum(
            1
            for rec in self.queries.values()
            if rec.degraded and rec.finished_at is not None and not rec.failed
        )

    def unavailable_count(self) -> int:
        """Queries that failed with the DATA_UNAVAILABLE outcome."""
        return sum(
            1
            for rec in self.queries.values()
            if rec.failed and rec.error == "DATA_UNAVAILABLE"
        )

    # ------------------------------------------------------------------
    # BAT lifecycle
    # ------------------------------------------------------------------
    def bat_stats(self, bat_id: int) -> BatStats:
        stats = self.bats.get(bat_id)
        if stats is None:
            stats = BatStats(bat_id=bat_id)
            self.bats[bat_id] = stats
        return stats

    def tag_bat(self, bat_id: int, tag: str) -> None:
        """Attach a workload tag (e.g. ``dh2``) for per-set ring-load series."""
        self._bat_tags[bat_id] = tag
        self.ring_bytes_by_tag.setdefault(tag, StepSeries())

    def bat_loaded(self, t: float, bat_id: int, size: int) -> None:
        self.bat_stats(bat_id).loads += 1
        recovering_since = self._recovering_bats.pop(bat_id, None)
        if recovering_since is not None:
            self.recovery_latencies.append(t - recovering_since)
        self.ring_bytes.add(t, size)
        self.ring_bats.add(t, 1)
        tag = self._bat_tags.get(bat_id)
        if tag is not None:
            self.ring_bytes_by_tag[tag].add(t, size)

    def bat_unloaded(self, t: float, bat_id: int, size: int) -> None:
        self.bat_stats(bat_id).unloads += 1
        self.ring_bytes.add(t, -size)
        self.ring_bats.add(t, -1)
        tag = self._bat_tags.get(bat_id)
        if tag is not None:
            self.ring_bytes_by_tag[tag].add(t, -size)

    def bat_touched(self, t: float, bat_id: int) -> None:
        self.bat_stats(bat_id).touches += 1

    def bat_pinned(self, t: float, bat_id: int, count: int = 1) -> None:
        self.bat_stats(bat_id).pins += count

    def bat_cycle(self, t: float, bat_id: int, cycles: int) -> None:
        stats = self.bat_stats(bat_id)
        stats.max_cycles = max(stats.max_cycles, cycles)

    def bat_dropped(self, t: float, bat_id: int, size: int, by_loss: bool) -> None:
        self.bat_stats(bat_id).drops += 1
        if by_loss:
            self.loss_drops += 1
        else:
            self.droptail_drops += 1
        # a dropped BAT leaves the ring without an unload event
        self.ring_bytes.add(t, -size)
        self.ring_bats.add(t, -1)
        tag = self._bat_tags.get(bat_id)
        if tag is not None:
            self.ring_bytes_by_tag[tag].add(t, -size)

    def request_created(self, t: float, bat_id: int) -> None:
        self.bat_stats(bat_id).requests += 1
        self.requests_sent += 1

    # ------------------------------------------------------------------
    # fault-injection hooks (docs/faults.md)
    # ------------------------------------------------------------------
    def bat_purged(self, t: float, bat_id: int, size: int) -> None:
        """A BAT message was lost to a node crash (purged transmit queue)."""
        self.crash_drops += 1
        self.ring_bytes.add(t, -size)
        self.ring_bats.add(t, -1)
        tag = self._bat_tags.get(bat_id)
        if tag is not None:
            self.ring_bytes_by_tag[tag].add(t, -size)

    def bat_rehomed(self, t: float, bat_id: int) -> None:
        """Ownership of ``bat_id`` moved off a crashed node."""
        self.bats_rehomed += 1
        self._recovering_bats.setdefault(bat_id, t)

    def bat_adopted(self, t: float, bat_id: int) -> None:
        """A circulating copy of a re-homed BAT was claimed by its new owner."""
        self.bats_adopted += 1
        # the copy never left the ring: recovery was instantaneous
        recovering_since = self._recovering_bats.pop(bat_id, None)
        if recovering_since is not None:
            self.recovery_latencies.append(t - recovering_since)

    def orphan_retired(self, t: float, bat_id: int, size: int) -> None:
        """A dead owner's copy was pulled out of circulation."""
        self.orphans_retired += 1
        self.ring_bytes.add(t, -size)
        self.ring_bats.add(t, -1)
        tag = self._bat_tags.get(bat_id)
        if tag is not None:
            self.ring_bytes_by_tag[tag].add(t, -size)

    def request_unavailable(self, t: float, bat_id: int) -> None:
        self.requests_unavailable += 1

    def ring_repaired(self, t: float, node: int, latency: float) -> None:
        """A detector-driven repair completed ``latency`` s after the failure."""
        self.ring_repairs += 1
        self.repair_latencies.append(latency)

    def node_down(self, t: float, node: int) -> None:
        self.downtime.setdefault(node, []).append([t, None])

    def node_up(self, t: float, node: int, owned_bats: Optional[List[int]] = None) -> None:
        intervals = self.downtime.get(node)
        if intervals and intervals[-1][1] is None:
            intervals[-1][1] = t
        for bat_id in owned_bats or []:
            self._recovering_bats.setdefault(bat_id, t)

    def node_downtime(self, node: int, until: float) -> float:
        """Total seconds ``node`` spent down, open intervals clipped at ``until``."""
        total = 0.0
        for down_at, up_at in self.downtime.get(node, []):
            total += (up_at if up_at is not None else until) - down_at
        return total

    def total_downtime(self, until: float) -> float:
        return sum(self.node_downtime(node, until) for node in sorted(self.downtime))

    def request_served(self, t: float, bat_id: int, latency: float) -> None:
        stats = self.bat_stats(bat_id)
        stats.max_request_latency = max(stats.max_request_latency, latency)

    # ------------------------------------------------------------------
    # derived artefacts
    # ------------------------------------------------------------------
    def lifetimes(self, tag: Optional[str] = None) -> List[float]:
        return [
            rec.lifetime
            for rec in self.queries.values()
            if rec.lifetime is not None
            and not rec.failed
            and (tag is None or rec.tag == tag)
        ]

    def lifetime_histogram(self, bin_width: float = 5.0, tag: Optional[str] = None) -> Histogram:
        hist = Histogram(bin_width=bin_width)
        hist.extend(self.lifetimes(tag))
        return hist

    def finished_count(self, tag: Optional[str] = None) -> int:
        return sum(
            1
            for rec in self.queries.values()
            if rec.finished_at is not None
            and not rec.failed
            and (tag is None or rec.tag == tag)
        )

    def registered_times(self, tag: Optional[str] = None) -> List[float]:
        return [
            rec.registered_at
            for rec in self.queries.values()
            if tag is None or rec.tag == tag
        ]

    def finished_times(self, tag: Optional[str] = None) -> List[float]:
        return [
            rec.finished_at
            for rec in self.queries.values()
            if rec.finished_at is not None
            and not rec.failed
            and (tag is None or rec.tag == tag)
        ]

    def throughput_series(
        self, end: float, step: float = 1.0, tag: Optional[str] = None
    ) -> Tuple[List[float], List[int]]:
        """Cumulative executed queries over time (Figure 6a / 8b)."""
        return binned_cumulative(self.finished_times(tag), end, step)

    def registered_series(
        self, end: float, step: float = 1.0, tag: Optional[str] = None
    ) -> Tuple[List[float], List[int]]:
        return binned_cumulative(self.registered_times(tag), end, step)

    def all_finished(self) -> bool:
        return all(rec.finished_at is not None for rec in self.queries.values())


def parent_attach_metrics(bus: Bus, metrics: "ParentCollector") -> Callable[[], None]:
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


# ----------------------------------------------------------------------
# the harness: an oracle beside every live collector
# ----------------------------------------------------------------------
@pytest.fixture
def pairs(monkeypatch) -> List[Tuple[object, ParentCollector]]:
    """Every (live, oracle) collector pair the test builds."""
    found = []

    def attach(bus, metrics):
        detach_live = attach_metrics(bus, metrics)
        oracle = ParentCollector()
        detach_oracle = parent_attach_metrics(bus, oracle)
        register = metrics.query_registered

        def tee(e):  # the direct callers hand the live collector an event
            register(e)
            oracle.query_registered(e.t, e.query_id, e.node, e.tag)

        metrics.query_registered = tee
        found.append((metrics, oracle))

        def detach():
            detach_live()
            detach_oracle()

        return detach

    monkeypatch.setattr(repro.core.ring, "attach_metrics", attach)
    monkeypatch.setattr(repro.multiring.federation, "attach_metrics", attach)
    return found


def canon(value):
    """A comparable form: floats by repr, series by points, records by field."""
    if isinstance(value, float):
        return ("float", repr(value))
    if isinstance(value, StepSeries):
        return ("series", canon(value.points()))
    if isinstance(value, (BatStats, QueryRecord)):
        return (type(value).__name__,
                [(f.name, canon(getattr(value, f.name))) for f in fields(value)])
    assert not is_dataclass(value), value
    if isinstance(value, dict):
        return ("dict", [(canon(k), canon(v)) for k, v in value.items()])
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [canon(v) for v in value])
    assert value is None or isinstance(value, (bool, int, str)), value
    return (type(value).__name__, value)


def derived(m, until: float) -> Dict:
    tags = [None] + sorted({rec.tag for rec in m.queries.values()})
    out = {
        "degraded_count": m.degraded_count(),
        "unavailable_count": m.unavailable_count(),
        "all_finished": m.all_finished(),
        "total_downtime": m.total_downtime(until),
    }
    for tag in tags:
        hist = m.lifetime_histogram(bin_width=0.5, tag=tag)
        out[f"tag {tag}"] = (
            m.lifetimes(tag), m.finished_count(tag), m.finished_times(tag),
            m.registered_times(tag), m.throughput_series(until, 0.5, tag),
            m.registered_series(until, 0.5, tag), hist.bins(), hist.total,
        )
    return out


def assert_same(pairs, until: float = 60.0) -> Dict[str, int]:
    """Compare every pair; returns how many oracles saw each attribute move."""
    assert pairs, "the run built no collector"
    moved: Dict[str, int] = {}
    for live, oracle in pairs:
        kept = set(vars(live)) - {"query_registered"}
        assert set(vars(oracle)) - kept == DEAD
        assert kept <= set(vars(oracle))
        for attr in sorted(kept):
            assert canon(getattr(live, attr)) == canon(getattr(oracle, attr)), attr
        assert canon(derived(live, until)) == canon(derived(oracle, until))
        fresh = vars(ParentCollector())
        for attr, value in vars(oracle).items():
            if canon(value) != canon(fresh[attr]):
                moved[attr] = moved.get(attr, 0) + 1
    return moved


# ----------------------------------------------------------------------
# the runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("resilience", [False, True])
def test_classic_ring_under_chaos(pairs, resilience):
    # crash/rejoin/degrade; with resilience, silent failures, retries and
    # K=2 replication
    harness = ChaosHarness(
        n_nodes=8, seed=2, crashes=2, rejoin_fraction=0.5, degradations=2,
        data_loss_rate=0.02, resilience=resilience, replication=2,
        rehome_policy="fail_fast" if resilience else "successor",
    )
    harness.injector.arm()
    result = harness.run()
    moved = assert_same(pairs, until=harness.dc.now)
    if resilience:
        assert {"nodes_failed", "node_suspicions", "nodes_confirmed_dead",
                "ring_repairs", "bats_promoted", "queries_retried"} <= set(moved)
    else:
        assert {"downtime", "bats_rehomed", "orphans_retired", "crash_drops",
                "loss_drops", "recovery_latencies"} <= set(moved)
    assert result.completed


@pytest.mark.parametrize("scenario", ["gateway", "migration"])
def test_federation_with_gateway_failover(pairs, scenario):
    harness = MultiRingChaosHarness(
        scenario=scenario, seed=0, duration=2.0, resilience=True
    )
    harness.run()
    moved = assert_same(pairs)
    expect = {"cross_ring_requests", "cross_ring_transfers"}
    expect |= (
        {"gateway_failures", "gateway_elections"} if scenario == "gateway"
        else {"migrations_started", "migrations_aborted"}
    )
    assert expect <= set(moved)


def test_federation_split_under_load(pairs):
    # a migrating, splitting federation behind the overload controller
    run_scenario("split-under-load", 0)
    moved = assert_same(pairs)
    assert {"ring_splits", "fragments_migrated", "queries_shed",
            "overload_state_changes", "queries_shed_by_tier"} <= set(moved)


def test_classic_overload_with_retry_budget(pairs):
    run_scenario("overload", 0)
    moved = assert_same(pairs)
    assert {"queries_retried", "queries_abandoned", "queries_shed_by_tier",
            "retry_budget_exhausted", "overload_state_changes"} <= set(moved)


def test_front_door_burst_with_a_controller(pairs):
    rdb = RingDatabase(
        DataCyclotronConfig(n_nodes=4, seed=3, bandwidth=3 * MB, fast_forward=False),
        lifecycle_events=True,
    )
    workload = FrontDoorWorkload(seed=3)
    workload.load_into(rdb)
    # the controller watches the same bus; the door does not consult it
    ctrl = OverloadController(rdb.dc, OverloadPolicy(target_p99=1.0, min_samples=8))
    ctrl.start()
    door = FrontDoor(rdb, policy=FrontDoorPolicy(
        tier_boundaries=(16 * 1024, 120 * 1024), admission="estimate",
        byte_budget=int(1.5 * MB), reject_above_bytes=256 * 1024,
    ))
    workload.offer_to(door)
    rdb.run_until_done(max_time=120.0)
    moved = assert_same(pairs, until=rdb.dc.now)
    assert {"queries_estimated", "frontdoor_admitted", "frontdoor_rejected",
            "frontdoor_rejected_by_tier", "estimate_feedback_count",
            "queries_shed_by_reason", "queries_by_engine"} <= set(moved)


def test_mixed_engine(pairs):
    run_scenario("mixed-engine", 0)
    moved = assert_same(pairs)
    assert {"queries_by_engine", "kv_probes", "kv_misses",
            "stream_bats_consumed", "stream_rows_consumed"} <= set(moved)


def test_updates_and_pulsating(pairs):
    dc = build_dc(n_nodes=4, bats={}, loit_static=0.0)
    for bat_id in range(8):
        dc.add_bat(bat_id, size=MB, tag="hot" if bat_id < 4 else None)
    coord = UpdateCoordinator(dc)
    for i, bat_id in enumerate((4, 4, 5, 6)):
        coord.submit_update(bat_id=bat_id, node=i % 4, apply_time=0.02)
    dc.submit_all(
        QuerySpec.simple(q, q % 4, 0.01 * q, [q % 8, (q + 3) % 8], [0.01, 0.01])
        for q in range(40)
    )
    pulse = PulsatingController(
        leave_threshold=0.3, join_threshold=0.6, patience=1,
        bus=dc.bus, clock=lambda: dc.now,
    )
    for node in range(4):
        dc.sim.post(0.5, pulse.observe, node, 0.1 if node % 2 else 0.9)
    assert dc.run_until_done(max_time=60.0)
    moved = assert_same(pairs, until=dc.now)
    assert {"queries", "ring_bytes_by_tag", "ring_leaves_volunteered",
            "ring_join_calls"} <= set(moved)
    assert any(rec.tag == "update" for rec in pairs[0][0].queries.values())
