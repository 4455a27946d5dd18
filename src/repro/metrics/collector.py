"""The central metrics sink every Data Cyclotron component reports to."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.events import types as ev
from repro.metrics.histogram import Histogram
from repro.metrics.timeseries import StepSeries, binned_cumulative

__all__ = ["BatStats", "QueryRecord", "MetricsCollector"]


@dataclass
class BatStats:
    """Per-BAT aggregates feeding Figures 9, 10 and 11."""

    bat_id: int
    touches: int = 0            # copies events: a node pinned the passing BAT
    pins: int = 0               # pin() calls served (incl. local cache hits)
    requests: int = 0           # request messages created for this BAT
    loads: int = 0              # times the owner (re-)loaded it into the ring
    unloads: int = 0
    max_cycles: int = 0         # highest cycle count observed (Fig. 11)
    max_request_latency: float = 0.0   # worst request->pin delay (Fig. 10)
    drops: int = 0              # DropTail losses of this BAT


@dataclass(slots=True)
class QueryRecord:
    """Lifecycle of one query."""

    query_id: int
    node: int
    registered_at: float
    tag: str = ""
    finished_at: Optional[float] = None
    failed: bool = False
    error: Optional[str] = None
    # degraded = finished, but only after fault recovery intervened
    # (resend, re-homed owner, or an orphaned-copy serve)
    degraded: bool = False

    @property
    def lifetime(self) -> Optional[float]:
        """The paper's "query life time": gross time from arrival to finish."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.registered_at


class MetricsCollector:
    """Accumulates everything the section 5 experiments report, from the
    events ``COUNTS`` and ``HANDLERS`` declare (subscribed by
    :func:`repro.events.bridge.attach_metrics`)."""

    # event type -> the counter it bumps (subscribed as a bus Counter,
    # so a producer holding a run of them may add the run in one step)
    COUNTS: Dict[type, str] = {
        ev.RequestForwarded: "requests_forwarded",
        ev.RequestAbsorbed: "requests_absorbed",
        ev.RequestReturnedToOrigin: "requests_returned_to_origin",
        ev.RequestResent: "resends",
        ev.BatForwarded: "bat_messages_forwarded",
        ev.LoadPostponed: "pending_postponed",
        ev.LoitChanged: "loit_changes",
        # fault injection (docs/faults.md)
        ev.RequestUnavailable: "requests_unavailable",  # requests failed with DATA_UNAVAILABLE
        # resilience (docs/resilience.md)
        ev.NodeSuspected: "node_suspicions",            # NodeSuspected events
        ev.NodeSuspicionCleared: "suspicions_cleared",  # NodeSuspicionCleared events
        ev.NodeConfirmedDead: "nodes_confirmed_dead",   # NodeConfirmedDead events
        ev.ResendAbandoned: "resends_abandoned",        # resend escalations that gave up
        ev.BatPromoted: "bats_promoted",                # replica owners promoted to primary
        ev.QueryRetried: "queries_retried",             # retry attempts dispatched (>= 2nd)
        ev.QueryAbandoned: "queries_abandoned",         # retry budget/deadline exhausted
        ev.StaleResultDiscarded: "stale_results_discarded",  # superseded attempt completions
        # multi-ring federation (docs/multiring.md)
        ev.RingLeaveVolunteered: "ring_leaves_volunteered",  # RingLeaveVolunteered events
        ev.RingJoinCalled: "ring_join_calls",           # RingJoinCalled events
        ev.CrossRingRequest: "cross_ring_requests",     # fetches dispatched to another ring
        ev.CrossRingTransfer: "cross_ring_transfers",   # BAT copies shipped between rings
        ev.QueryShipped: "queries_shipped",             # whole queries moved to another ring
        ev.MigrationStarted: "migrations_started",      # fragment re-homings begun
        ev.FragmentMigrated: "fragments_migrated",      # fragment re-homings completed
        ev.MigrationAborted: "migrations_aborted",      # re-homings rolled back mid-flight
        ev.RingSplit: "ring_splits",                    # standby rings activated
        ev.RingsMerged: "rings_merged",                 # underutilized rings drained
        ev.GatewayFailed: "gateway_failures",           # gateway nodes lost
        ev.GatewayElected: "gateway_elections",         # replacement gateways designated
        ev.ServeHandedOff: "serves_handed_off",         # in-flight serves moved off dead gateways
        # front-door serving tier (docs/frontdoor.md)
        ev.QueryEstimated: "queries_estimated",         # requests priced before compilation
        ev.FrontDoorRejected: "frontdoor_rejected",     # requests refused at the door
    }

    # event type -> the method that folds it in
    HANDLERS: Dict[type, str] = {
        ev.QueryRegistered: "query_registered",
        ev.QueryFinished: "query_finished",
        ev.QueryFailed: "query_failed",
        ev.QueryDegraded: "query_degraded",
        ev.BatTagged: "tag_bat",
        ev.BatLoaded: "bat_loaded",
        ev.BatUnloaded: "bat_unloaded",
        ev.BatTouched: "bat_touched",
        ev.BatPinned: "bat_pinned",
        ev.BatCycled: "bat_cycle",
        ev.BatDropped: "bat_dropped",
        ev.RequestCreated: "request_created",
        ev.RequestServed: "request_served",
        ev.BatPurged: "bat_purged",
        ev.BatRehomed: "bat_rehomed",
        ev.BatAdopted: "bat_adopted",
        ev.OrphanRetired: "orphan_retired",
        ev.NodeCrashed: "node_down",
        ev.NodeRejoined: "node_up",
        ev.NodeFailed: "node_failed",
        ev.RingRepaired: "ring_repaired",
        ev.QueryShed: "query_shed",
        ev.QpuQueryRouted: "qpu_routed",
        ev.KvProbeServed: "kv_probe",
        ev.StreamBatConsumed: "stream_bat_consumed",
        ev.EstimateFeedback: "estimate_feedback",
    }

    def __init__(self) -> None:
        for attr in self.COUNTS.values():
            setattr(self, attr, 0)
        self.queries: Dict[int, QueryRecord] = {}
        self.bats: Dict[int, BatStats] = {}
        # ring load step series (Figures 7a/7b); per-tag series for Fig. 8a
        self.ring_bytes = StepSeries()
        self.ring_bats = StepSeries()
        self.ring_bytes_by_tag: Dict[str, StepSeries] = {}
        self._bat_tags: Dict[int, str] = {}
        self.requests_sent = 0
        self.droptail_drops = 0
        self.loss_drops = 0
        # fault-injection counters (docs/faults.md)
        self.crash_drops = 0            # messages purged from a dead node's queues
        self.bats_rehomed = 0           # ownership transfers off a dead node
        self.bats_adopted = 0           # circulating copies adopted by a new owner
        self.orphans_retired = 0        # dead-owner copies pulled out of the ring
        # resilience counters (docs/resilience.md)
        self.nodes_failed = 0           # silent failures (fail_node)
        self.ring_repairs = 0           # detector-driven ring repairs
        self.repair_latencies: List[float] = []  # failure -> repair, seconds
        self.queries_shed = 0           # admission valve fast-fails
        self.queries_shed_by_engine: Dict[str, int] = {}  # byte-valve refusals
        self.queries_shed_by_reason: Dict[str, int] = {}  # who refused (docs/frontdoor.md)
        # query processing units (docs/qpu.md)
        self.queries_by_engine: Dict[str, int] = {}  # QPU routing counts
        self.kv_probes = 0              # KV point lookups served
        self.kv_misses = 0              # lookups for unknown keys
        self.stream_bats_consumed = 0   # partitions folded in cycle order
        self.stream_rows_consumed = 0   # rows behind those folds
        # front-door estimator feedback (docs/frontdoor.md)
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
    def query_registered(self, e: ev.QueryRegistered) -> None:
        self.queries[e.query_id] = QueryRecord(
            query_id=e.query_id, node=e.node, registered_at=e.t, tag=e.tag
        )

    def query_finished(self, e: ev.QueryFinished) -> None:
        self.queries[e.query_id].finished_at = e.t

    def query_failed(self, e: ev.QueryFailed) -> None:
        rec = self.queries[e.query_id]
        rec.finished_at = e.t
        rec.failed = True
        rec.error = e.error

    def query_degraded(self, e: ev.QueryDegraded) -> None:
        """The query needed fault recovery (resend / re-home / orphan serve)."""
        rec = self.queries.get(e.query_id)
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
    # query processing units (docs/qpu.md)
    # ------------------------------------------------------------------
    def qpu_routed(self, e: ev.QpuQueryRouted) -> None:
        self.queries_by_engine[e.engine] = self.queries_by_engine.get(e.engine, 0) + 1

    def kv_probe(self, e: ev.KvProbeServed) -> None:
        self.kv_probes += 1
        if not e.hit:
            self.kv_misses += 1

    def stream_bat_consumed(self, e: ev.StreamBatConsumed) -> None:
        self.stream_bats_consumed += 1
        self.stream_rows_consumed += e.rows

    # ------------------------------------------------------------------
    # admission: the front door's estimator and every valve's refusals
    # ------------------------------------------------------------------
    def estimate_feedback(self, e: ev.EstimateFeedback) -> None:
        self.estimate_feedback_count += 1
        if e.predicted_bytes == e.actual_bytes:
            self.estimate_exact_bytes += 1

    def query_shed(self, e: ev.QueryShed) -> None:
        self.queries_shed += 1
        if e.engine:
            self.queries_shed_by_engine[e.engine] = (
                self.queries_shed_by_engine.get(e.engine, 0) + 1
            )
        if e.reason:
            self.queries_shed_by_reason[e.reason] = (
                self.queries_shed_by_reason.get(e.reason, 0) + 1
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

    def tag_bat(self, e: ev.BatTagged) -> None:
        """Attach a workload tag (e.g. ``dh2``) for per-set ring-load series."""
        self._bat_tags[e.bat_id] = e.tag
        self.ring_bytes_by_tag.setdefault(e.tag, StepSeries())

    def _ring_load(self, e, sign: int) -> None:
        """``e``'s BAT entered (``sign`` 1) or left (-1) the ring."""
        size = sign * e.size
        self.ring_bytes.add(e.t, size)
        self.ring_bats.add(e.t, sign)
        tag = self._bat_tags.get(e.bat_id)
        if tag is not None:
            self.ring_bytes_by_tag[tag].add(e.t, size)

    def _recovered(self, t: float, bat_id: int) -> None:
        recovering_since = self._recovering_bats.pop(bat_id, None)
        if recovering_since is not None:
            self.recovery_latencies.append(t - recovering_since)

    def bat_loaded(self, e: ev.BatLoaded) -> None:
        self.bat_stats(e.bat_id).loads += 1
        self._recovered(e.t, e.bat_id)
        self._ring_load(e, 1)

    def bat_unloaded(self, e: ev.BatUnloaded) -> None:
        self.bat_stats(e.bat_id).unloads += 1
        self._ring_load(e, -1)

    def bat_touched(self, e: ev.BatTouched) -> None:
        self.bat_stats(e.bat_id).touches += 1

    def bat_pinned(self, e: ev.BatPinned) -> None:
        self.bat_stats(e.bat_id).pins += e.count

    def bat_cycle(self, e: ev.BatCycled) -> None:
        stats = self.bat_stats(e.bat_id)
        stats.max_cycles = max(stats.max_cycles, e.cycles)

    def bat_dropped(self, e: ev.BatDropped) -> None:
        self.bat_stats(e.bat_id).drops += 1
        if e.by_loss:
            self.loss_drops += 1
        else:
            self.droptail_drops += 1
        # a dropped BAT leaves the ring without an unload event
        self._ring_load(e, -1)

    def request_created(self, e: ev.RequestCreated) -> None:
        self.bat_stats(e.bat_id).requests += 1
        self.requests_sent += 1

    def request_served(self, e: ev.RequestServed) -> None:
        stats = self.bat_stats(e.bat_id)
        stats.max_request_latency = max(stats.max_request_latency, e.latency)

    # ------------------------------------------------------------------
    # fault injection (docs/faults.md) and resilience (docs/resilience.md)
    # ------------------------------------------------------------------
    def bat_purged(self, e: ev.BatPurged) -> None:
        """A BAT message was lost to a node crash (purged transmit queue)."""
        self.crash_drops += 1
        self._ring_load(e, -1)

    def bat_rehomed(self, e: ev.BatRehomed) -> None:
        """Ownership of the BAT moved off a crashed node."""
        self.bats_rehomed += 1
        self._recovering_bats.setdefault(e.bat_id, e.t)

    def bat_adopted(self, e: ev.BatAdopted) -> None:
        """A circulating copy of a re-homed BAT was claimed by its new owner."""
        self.bats_adopted += 1
        # the copy never left the ring: recovery was instantaneous
        self._recovered(e.t, e.bat_id)

    def orphan_retired(self, e: ev.OrphanRetired) -> None:
        """A dead owner's copy was pulled out of circulation."""
        self.orphans_retired += 1
        self._ring_load(e, -1)

    def ring_repaired(self, e: ev.RingRepaired) -> None:
        """A detector-driven repair completed ``e.latency`` s after the failure."""
        self.ring_repairs += 1
        self.repair_latencies.append(e.latency)

    def node_down(self, e: ev.NodeCrashed) -> None:
        self.downtime.setdefault(e.node, []).append([e.t, None])

    def node_failed(self, e: ev.NodeFailed) -> None:
        """A silent failure: the node is down, and nobody announced it."""
        self.nodes_failed += 1
        self.node_down(e)

    def node_up(self, e: ev.NodeRejoined) -> None:
        intervals = self.downtime.get(e.node)
        if intervals and intervals[-1][1] is None:
            intervals[-1][1] = e.t
        for bat_id in e.owned_bats:
            self._recovering_bats.setdefault(bat_id, e.t)

    def node_downtime(self, node: int, until: float) -> float:
        """Total seconds ``node`` spent down, open intervals clipped at ``until``."""
        total = 0.0
        for down_at, up_at in self.downtime.get(node, []):
            total += (up_at if up_at is not None else until) - down_at
        return total

    def total_downtime(self, until: float) -> float:
        return sum(self.node_downtime(node, until) for node in sorted(self.downtime))

    # ------------------------------------------------------------------
    # derived artefacts
    # ------------------------------------------------------------------
    def _finished(self, tag: Optional[str]) -> Iterator[QueryRecord]:
        """Queries that finished without failing, in registration order."""
        for rec in self.queries.values():
            if (rec.finished_at is not None and not rec.failed
                    and (tag is None or rec.tag == tag)):
                yield rec

    def lifetimes(self, tag: Optional[str] = None) -> List[float]:
        return [rec.lifetime for rec in self._finished(tag)]

    def lifetime_histogram(self, bin_width: float = 5.0, tag: Optional[str] = None) -> Histogram:
        hist = Histogram(bin_width=bin_width)
        hist.extend(self.lifetimes(tag))
        return hist

    def finished_count(self, tag: Optional[str] = None) -> int:
        return sum(1 for _ in self._finished(tag))

    def registered_times(self, tag: Optional[str] = None) -> List[float]:
        return [
            rec.registered_at
            for rec in self.queries.values()
            if tag is None or rec.tag == tag
        ]

    def finished_times(self, tag: Optional[str] = None) -> List[float]:
        return [rec.finished_at for rec in self._finished(tag)]

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
