"""The multi-ring federation facade (docs/multiring.md).

A :class:`RingFederation` is N classic :class:`DataCyclotron` rings on
one shared simulator clock, joined by gateway nodes and inter-ring
links.  Queries address *global* node indices (``ring * nodes_per_ring
+ local``); BATs are spread round-robin across the active rings and
re-homed later by the placement manager.

The degenerate configuration -- one ring, zero gateways -- schedules no
federation machinery at all: submission delegates to the classic
``DataCyclotron.submit`` / ``submit_all`` and the run loop mirrors the
classic ``run_until_done`` line for line, so the event stream is
bit-identical to a stand-alone deployment
(tests/test_multiring_golden.py pins this).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.messages import REQUEST_MESSAGE_SIZE
from repro.core.query import QuerySpec
from repro.core.ring import DataCyclotron
from repro.core.runtime import NodeRuntime, PinResult
from repro.events import types as ev
from repro.events.bridge import attach_metrics
from repro.events.bus import Bus
from repro.metrics.collector import MetricsCollector
from repro.multiring.catalog import GlobalCatalog
from repro.multiring.config import MultiRingConfig
from repro.multiring.placement import PlacementManager
from repro.multiring.router import CrossRingRouter, fetch_timeout_for
from repro.multiring.splitmerge import SplitMergeController
from repro.sim.engine import Simulator
from repro.sim.process import ArrivalStream, Process

__all__ = ["FederationHost", "RingFederation", "federated_query_process"]

NODE_CRASHED = "NODE_CRASHED"


def federated_query_process(fed: "FederationHost", ring_id: int,
                            runtime: NodeRuntime, spec: QuerySpec):
    """The federated twin of :func:`repro.core.query.query_process`.

    Identical pin schedule and lifecycle events -- for an all-local spec
    the emitted stream is bit-identical to the classic process; the only
    difference is a catalog lookup per pin: a BAT homed on this ring
    goes through the classic ``NodeRuntime.pin``, anything else through
    the cross-ring router.  The placement manager may move a fragment
    between the request and the pin -- the catalog is re-read at every
    step, and a stale S2 entry left by ``request`` is dropped at finish.
    """
    bus = runtime.bus
    sim = runtime.sim
    fed._note_start(ring_id, spec)
    if bus.active:
        bus.publish(ev.QueryRegistered(
            sim.now, spec.query_id, runtime.node_id, spec.tag
        ))
    catalog = fed.catalog
    local = [
        b for b in spec.bat_ids
        if catalog.maybe_home(b) == ring_id and not catalog.is_migrating(b)
    ]
    if local:
        runtime.request(spec.query_id, local)
    pinned: List[int] = []
    failed: Optional[str] = None
    for step in spec.steps:
        if runtime.crashed:
            failed = NODE_CRASHED
            break
        if step.op_time > 0.0:
            yield runtime.exec_op(step.op_time)
            if runtime.crashed:
                failed = NODE_CRASHED
                break
        bat_id = step.bat_id
        if catalog.maybe_home(bat_id) == ring_id and not catalog.is_migrating(bat_id):
            fut = runtime.pin(spec.query_id, bat_id)
            yield fut
            result: PinResult = fut.value
            if result.ok:
                pinned.append(bat_id)
        else:
            fut = fed.router.fetch(ring_id, bat_id)
            yield fut
            result = fut.value
        if not result.ok:
            failed = result.error or "pin failed"
            break
        if runtime.crashed:
            failed = NODE_CRASHED
            break
    if failed is None and spec.tail_time > 0.0:
        yield runtime.exec_op(spec.tail_time)
        if runtime.crashed:
            failed = NODE_CRASHED
    for bat_id in pinned:
        runtime.unpin(spec.query_id, bat_id)
    runtime.finish_query(spec.query_id, failed=failed is not None, error=failed or "")
    fed._note_done(ring_id, runtime.node_id, spec, failed)
    return failed


class FederationHost:
    """The dispatch -> done -> retry ladder both federations run.

    A host owns ``config``, ``sim``, ``bus``, ``catalog``, ``router``
    and ``rings`` (ring id -> :class:`DataCyclotron`); the shared-clock
    :class:`RingFederation` hosts every ring, a
    :class:`~repro.multiring.partition.RingPartition` exactly one.  The
    three ``_note_start`` / ``_query_ended`` / ``_retry_scheduled``
    hooks are no-ops here; the partition overrides them to keep the
    kernel's conservative bound informed.
    """

    def _init_ladder(self) -> None:
        # the ladder reads retry_max_attempts and the backoff fields only
        for name in ("retry_deadline", "retry_attempt_timeout", "retry_budget_capacity"):
            if getattr(self.config.base, name) is not None:
                raise ValueError(f"{name}: a federation's retry ladder does not read it")
        # logical query id -> "ok" | error; the only per-query entry a
        # settled query leaves behind
        self._outcomes: Dict[int, str] = {}
        # attempt number of a query that failed and will run again; a
        # first attempt is implied by absence
        self._attempts: Dict[int, int] = {}
        # nodes whose crash was *announced* on a ring bus (NodeCrashed is
        # the omniscient-mode fault: publishing it makes the death public
        # knowledge, so routing around it leaks nothing; silent fail_node
        # deaths are only learned through each ring's failure detector)
        self._announced_down: Dict[int, set] = {}

    def _watch_ring(self, ring_id: int, ring: DataCyclotron) -> None:
        down = self._announced_down.setdefault(ring_id, set())
        ring.bus.subscribe(ev.NodeCrashed, lambda e: down.add(e.node))
        ring.bus.subscribe(ev.NodeRejoined, lambda e: down.discard(e.node))

    def global_node(self, ring_id: int, local: int) -> int:
        return ring_id * self.config.nodes_per_ring + local

    def _book(self, ring_id: int, spec: QuerySpec, node: int,
              arrival: float) -> Tuple[NodeRuntime, float]:
        """Count ``spec`` on the ring it runs on; return the runtime of
        ring-local ``node`` and the delay from now to ``arrival`` (the
        spec's own ``node`` and ``arrival`` are where it was submitted,
        not where it runs)."""
        ring = self.rings[ring_id]
        if not 0 <= node < ring.config.n_nodes:
            raise ValueError(f"query {spec.query_id} targets invalid node {node}")
        ring._submitted += 1
        return ring.nodes[node], max(0.0, arrival - self.sim.now)

    def _dispatch(self, ring_id: int, spec: QuerySpec, node: int,
                  arrival: float) -> Process:
        """Run ``spec`` at ring-local ``node`` from ``arrival`` on."""
        runtime, delay = self._book(ring_id, spec, node, arrival)
        return Process(
            self.sim, federated_query_process, self, ring_id, runtime, spec,
            start_delay=delay,
        )

    # -- hooks ---------------------------------------------------------
    def _note_start(self, ring_id: int, spec: QuerySpec) -> None:
        """A dispatched query process begins to run."""

    def _query_ended(self, ring_id: int, spec: QuerySpec) -> None:
        """A query process ran to its end (any outcome)."""

    def _retry_scheduled(self, ring_id: int, spec: QuerySpec, at: float) -> None:
        """A failed query will be re-dispatched at simulated time ``at``."""

    # -- completion + federation-level retry ---------------------------
    def _note_done(self, ring_id: int, node: int, spec: QuerySpec,
                   failed: Optional[str]) -> None:
        self._query_ended(ring_id, spec)
        attempt = self._attempts.pop(spec.query_id, 1)
        if failed is None:
            self._outcomes[spec.query_id] = "ok"
            return
        base = self.config.base
        if base.resilience and attempt < base.retry_max_attempts:
            self._attempts[spec.query_id] = attempt + 1
            backoff = base.retry_backoff(attempt)
            self._retry_scheduled(ring_id, spec, self.sim.now + backoff)
            self.sim.post(backoff, self._retry, spec, ring_id, node, failed)
            return
        self._outcomes[spec.query_id] = failed
        if base.resilience and self.bus.active:
            self.bus.publish(ev.QueryAbandoned(
                self.sim.now, spec.query_id, attempt, failed
            ))

    def _retry(self, spec: QuerySpec, ring_id: int, failed_node: int,
               error: str) -> None:
        """Re-dispatch ``spec``, which failed at ``failed_node`` of
        ``ring_id``, on the first node from there nobody knows is down."""
        query_id = spec.query_id
        ring = self.rings[ring_id]
        # avoid every node whose death is known without injector
        # knowledge: announced crashes plus detector-confirmed/suspected
        avoid = set(self._announced_down.get(ring_id, ()))
        if ring.resilience is not None:
            avoid |= ring.resilience.known_down | ring.resilience.suspected_targets
        n = ring.config.n_nodes
        node = failed_node
        for step in range(n):
            candidate = (failed_node + step) % n
            if candidate not in avoid:
                node = candidate
                break
        if self.bus.active:
            self.bus.publish(ev.QueryRetried(
                self.sim.now, query_id, self._attempts[query_id],
                self.global_node(ring_id, node), error,
            ))
        self._dispatch(ring_id, spec, node, self.sim.now)


class RingFederation(FederationHost):
    """N small rings, one clock, three federation mechanisms."""

    def __init__(self, config: Optional[MultiRingConfig] = None):
        self.config = config if config is not None else MultiRingConfig()
        self.bus = Bus()
        self.sim = Simulator(bus=self.bus)
        self.metrics = MetricsCollector()
        self._detach_metrics = attach_metrics(self.bus, self.metrics)
        self.rings: List[DataCyclotron] = [
            DataCyclotron(config=self.config.ring_config(r), sim=self.sim)
            for r in range(self.config.max_rings)
        ]
        self.active_rings: List[int] = list(range(self.config.n_rings))
        self.catalog = GlobalCatalog()
        self.federated = self.config.federated
        self.router: Optional[CrossRingRouter] = None
        self.placement: Optional[PlacementManager] = None
        self.splitmerge: Optional[SplitMergeController] = None
        self.guard = None
        if self.federated:
            self.router = CrossRingRouter(self)
            self.placement = PlacementManager(self)
            self.splitmerge = SplitMergeController(self)
            if self.config.gateways_per_ring > 0:
                from repro.resilience.gateway import GatewayGuard

                self.guard = GatewayGuard(self)
        self._init_ladder()
        if self.federated:
            for ring_id, ring in enumerate(self.rings):
                self._watch_ring(ring_id, ring)
        self._next_ring = 0
        self._submitted = 0
        self._started = False
        self._schedulers: Dict[int, Any] = {}

    # ------------------------------------------------------------------
    # topology helpers
    # ------------------------------------------------------------------
    @property
    def total_nodes(self) -> int:
        return len(self.active_rings) * self.config.nodes_per_ring

    def locate(self, global_node: int) -> tuple:
        """(ring_id, local_node) for a global node index; a node of an
        inactive ring is remapped onto an active one."""
        n_nodes = self.config.max_rings * self.config.nodes_per_ring
        if not 0 <= global_node < n_nodes:
            raise ValueError(f"node {global_node} outside [0, {n_nodes})")
        ring_id, local = divmod(global_node, self.config.nodes_per_ring)
        if ring_id not in self.active_rings:
            ring_id = self.active_rings[ring_id % len(self.active_rings)]
        return ring_id, local

    def next_standby_ring(self) -> Optional[int]:
        for ring_id in range(len(self.rings)):
            if ring_id not in self.active_rings:
                return ring_id
        return None

    def activate_ring(self, ring_id: int) -> None:
        if ring_id in self.active_rings:
            return
        self.active_rings.append(ring_id)
        self.active_rings.sort()
        if self._started:
            self.rings[ring_id]._start_ticks()

    def deactivate_ring(self, ring_id: int) -> None:
        """Stop routing new work to the ring (its clock keeps ticking).

        Fragments are drained separately by the caller (the split/merge
        controller queues the migrations before deactivating).
        """
        if ring_id in self.active_rings and len(self.active_rings) > 1:
            self.active_rings.remove(ring_id)

    # ------------------------------------------------------------------
    # data placement
    # ------------------------------------------------------------------
    def add_bat(
        self,
        bat_id: int,
        size: int,
        ring: Optional[int] = None,
        owner: Optional[int] = None,
        payload: Any = None,
        tag: Optional[str] = None,
    ) -> int:
        """Register a BAT; returns its *global* owner node index."""
        if ring is None:
            ring = self.active_rings[self._next_ring % len(self.active_rings)]
            self._next_ring += 1
        if ring not in self.active_rings:
            raise ValueError(f"ring {ring} is not active")
        local_owner = self.rings[ring].add_bat(
            bat_id, size, owner=owner, payload=payload, tag=tag
        )
        self.catalog.place(bat_id, ring, size)
        return self.global_node(ring, local_owner)

    # ------------------------------------------------------------------
    # workload submission
    # ------------------------------------------------------------------
    def submit(self, spec: QuerySpec):
        """Submit one query addressed to a global node index; a query
        that fails validation raises and is not counted."""
        if not self.federated:
            proc = self.rings[self.active_rings[0]].submit(spec)
            self._submitted += 1
            return proc
        ring_id, node, arrival = self._place(spec)
        proc = self._dispatch(ring_id, spec, node, arrival)
        self._submitted += 1
        return proc

    def _place(self, spec: QuerySpec) -> Tuple[int, int, float]:
        """Validate ``spec`` and decide where it runs: ``(ring, node,
        arrival)``, shipped if :meth:`_maybe_ship` says so."""
        bats = spec.bat_ids
        unknown = [b for b in bats if b not in self.catalog]
        if unknown:
            raise ValueError(f"query {spec.query_id} references unknown BATs {unknown}")
        if spec.arrival < self.sim.now:
            raise ValueError(f"query {spec.query_id} arrives in the past")
        ring_id, local = self.locate(spec.node)
        return self._maybe_ship(spec, ring_id, local, bats)

    def submit_all(self, specs: Iterable[QuerySpec]) -> int:
        """:meth:`submit` every spec; returns how many.  Each is
        validated, shipped and booked here, as ``submit`` does, but holds
        a record, not a process, until it is the next to arrive
        (:class:`~repro.sim.process.ArrivalStream`).  A spec that fails
        validation raises, and the ones before it stay submitted."""
        if not self.federated:
            ring = self.rings[self.active_rings[0]]
            before = ring._submitted
            try:
                return ring.submit_all(specs)
            finally:
                self._submitted += ring._submitted - before
        stream = ArrivalStream(self.sim, federated_query_process, self)
        try:
            for spec in specs:
                ring_id, node, arrival = self._place(spec)
                runtime, delay = self._book(ring_id, spec, node, arrival)
                stream.post(delay, ring_id, runtime, spec)
                self._submitted += 1
        finally:
            stream.start()
        return len(stream)

    def _scheduler(self, ring_id: int):
        """Per-ring nomadic bid scheduler, created on first ship."""
        scheduler = self._schedulers.get(ring_id)
        if scheduler is None:
            from repro.xtn.bidding import BidScheduler

            scheduler = BidScheduler(self.rings[ring_id])
            self._schedulers[ring_id] = scheduler
        return scheduler

    def _maybe_ship(self, spec: QuerySpec, ring_id: int, local: int,
                    bats: List[int]):
        """Ship-vs-transfer: move the query to the ring owning its data.

        The section 6.1 nomadic phase at ring granularity
        (:meth:`_ship_target` decides): shipping the (tiny) query can
        beat shipping the (large) BATs.  The landing node is picked by
        the target ring's own cost bids; the inter-ring hop is charged
        to the arrival time.  ``bats`` are the query's distinct BATs,
        derived once by :meth:`_place`.  Returns ``(ring_id, node,
        arrival)`` where the query runs; ``spec`` is not copied.
        """
        best = self._ship_target(ring_id, bats)
        if best == ring_id:
            return ring_id, local, spec.arrival
        scheduler = self._scheduler(best)
        _price, node = scheduler.cheapest(bats)
        scheduler.book(spec.query_id, node)
        travel = (
            self.config.link_delay()
            + REQUEST_MESSAGE_SIZE / self.config.base.bandwidth
        )
        if self.bus.active:
            self.bus.publish(ev.QueryShipped(
                self.sim.now, spec.query_id, ring_id, best, node
            ))
        return best, node, spec.arrival + travel

    def _ship_target(self, ring_id: int, bats: List[int]) -> int:
        """The ring a query entering ``ring_id`` should run on.

        It ships when one remote active ring holds at least
        ``ship_threshold`` of its bytes.  The decision reads the catalog
        of the submit instant.
        """
        threshold = self.config.ship_threshold
        if len(self.active_rings) < 2 or not 0 < threshold <= 1:
            return ring_id
        # one pass over the catalog's own maps, not two lookups per BAT
        home = self.catalog._home
        size_of = self.catalog._size
        bytes_by_ring: Dict[int, int] = {}
        total = 0
        for bat_id in bats:
            ring = home[bat_id]
            size = size_of[bat_id]
            bytes_by_ring[ring] = bytes_by_ring.get(ring, 0) + size
            total += size
        if total == 0:
            return ring_id
        heaviest = max(bytes_by_ring, key=lambda r: (bytes_by_ring[r], -r))
        if bytes_by_ring[heaviest] / total < threshold or heaviest not in self.active_rings:
            return ring_id
        return heaviest

    def _query_ended(self, ring_id: int, spec: QuerySpec) -> None:
        scheduler = self._schedulers.get(ring_id)
        if scheduler is not None:
            scheduler.query_finished(spec)

    @property
    def completed_queries(self) -> int:
        if not self.federated:
            return sum(r.completed_queries for r in self.rings)
        return len(self._outcomes)

    @property
    def failed_queries(self) -> int:
        if not self.federated:
            return sum(
                sum(n.queries_failed for n in r.nodes) for r in self.rings
            )
        return sum(1 for outcome in self._outcomes.values() if outcome != "ok")

    def all_terminal(self) -> bool:
        return self.completed_queries >= self._submitted

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _start(self) -> None:
        if self._started:
            return
        self._started = True
        for ring_id in self.active_rings:
            self.rings[ring_id]._start_ticks()
        if self.federated:
            self.router.fetch_timeout = fetch_timeout_for(
                self.config, self.catalog,
                {r: self.rings[r].config for r in self.active_rings},
            )
            self.placement.start()
            self.splitmerge.start()

    def run(self, until: float) -> None:
        self._start()
        self.sim.run(until=until)

    def run_until_done(self, max_time: float = 3600.0, check_interval: float = 1.0) -> bool:
        """Identical polling loop to ``DataCyclotron.run_until_done``."""
        self._start()
        while self.sim.now < max_time:
            if self.completed_queries >= self._submitted:
                return True
            self.sim.run(until=min(self.sim.now + check_interval, max_time))
        return self.completed_queries >= self._submitted

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def ring_summaries(self) -> List[dict]:
        rows = []
        for ring_id, ring in enumerate(self.rings):
            finished = sum(n.queries_finished for n in ring.nodes)
            failed = sum(n.queries_failed for n in ring.nodes)
            lifetimes = ring.metrics.lifetimes()
            mean_lifetime = sum(lifetimes) / len(lifetimes) if lifetimes else 0.0
            rows.append({
                "ring": ring_id,
                "active": ring_id in self.active_rings,
                "nodes": ring.config.n_nodes,
                "fragments": len(self.catalog.bats_on(ring_id)),
                "fragment_bytes": self.catalog.bytes_on(ring_id),
                "queries_finished": finished,
                "queries_failed": failed,
                "mean_lifetime": round(mean_lifetime, 6),
                "peak_ring_bytes": ring.metrics.ring_bytes.maximum(),
            })
        return rows

    def summary(self) -> dict:
        # land every ring's coalesced flights first, as
        # DataCyclotron.summary() does: their event credits are still owed
        for ring in self.rings:
            ring.ff.flush_all()
        out = {
            "n_rings": len(self.rings),
            "active_rings": list(self.active_rings),
            "nodes_per_ring": self.config.nodes_per_ring,
            "submitted": self._submitted,
            "completed": self.completed_queries,
            "failed": self.failed_queries,
            "events_processed": self.sim.processed,
            "queries_shipped": self.metrics.queries_shipped,
            "cross_ring_requests": self.metrics.cross_ring_requests,
            "cross_ring_transfers": self.metrics.cross_ring_transfers,
            "fragments_migrated": self.metrics.fragments_migrated,
            "migrations_aborted": self.metrics.migrations_aborted,
            "ring_splits": self.metrics.ring_splits,
            "rings_merged": self.metrics.rings_merged,
            "gateway_failures": self.metrics.gateway_failures,
            "gateway_elections": self.metrics.gateway_elections,
            "rings": self.ring_summaries(),
        }
        if self.router is not None:
            out.update(self.router.stats())
        if self.placement is not None:
            out.update(self.placement.stats())
        return out
