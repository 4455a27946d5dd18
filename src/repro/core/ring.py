"""The Data Cyclotron system facade.

Builds the storage ring of Figure 2 -- nodes, clockwise data channels,
anti-clockwise request channels -- seeds BAT ownership, schedules the
periodic ``loadAll`` / LOIT-adaptation ticks, and runs workloads of
:class:`~repro.core.query.QuerySpec` objects to completion.

>>> from repro.core import DataCyclotron, DataCyclotronConfig, QuerySpec
>>> dc = DataCyclotron(DataCyclotronConfig(n_nodes=4))
>>> for bat_id in range(8):
...     _ = dc.add_bat(bat_id, size=1 << 20)
>>> _ = dc.submit(QuerySpec.simple(0, node=0, arrival=0.0,
...                                bat_ids=[5], processing_times=[0.01]))
>>> dc.run_until_done(max_time=10.0)
True
>>> dc.metrics.finished_count()
1
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.config import DataCyclotronConfig
from repro.core.fastforward import FastForwarder
from repro.core.query import QuerySpec, query_process
from repro.core.runtime import NodeRuntime
from repro.core.structures import RingIndex
from repro.events import types as ev
from repro.events.bridge import attach_metrics
from repro.events.bus import Bus
from repro.events.tracer import Tracer
from repro.metrics.collector import MetricsCollector
from repro.net.topology import Ring
from repro.sim.engine import Simulator
from repro.sim.process import Process
from repro.sim.rng import RngRegistry

__all__ = ["DataCyclotron"]


class DataCyclotron:
    """A complete simulated Data Cyclotron deployment.

    All instrumentation flows through ``self.bus``: the facade attaches
    the :class:`MetricsCollector` as the first subscriber, then (when
    ``config.trace`` names a JSONL path) a streaming
    :class:`~repro.events.tracer.Tracer`.  Additional observers -- live
    invariant monitors, dashboards -- subscribe to the same bus without
    touching protocol code.
    """

    def __init__(
        self,
        config: Optional[DataCyclotronConfig] = None,
        metrics: Optional[MetricsCollector] = None,
        bus: Optional[Bus] = None,
        sim: Optional[Simulator] = None,
    ):
        self.config = config if config is not None else DataCyclotronConfig()
        self.bus = bus if bus is not None else Bus()
        # A shared simulator lets several rings co-exist on one clock
        # (repro.multiring); the default keeps the classic single-ring
        # deployment self-contained.
        self.sim = sim if sim is not None else Simulator(bus=self.bus)
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self._detach_metrics = attach_metrics(self.bus, self.metrics)
        self._metrics_attached = True
        self.tracer: Optional[Tracer] = None
        if self.config.trace is not None:
            self.tracer = Tracer(jsonl_path=self.config.trace, keep=False)
            self.tracer.attach(self.bus)
        self.rng = RngRegistry(self.config.seed)

        self.ring = Ring(
            self.sim,
            n_nodes=self.config.n_nodes,
            bandwidth=self.config.bandwidth,
            delay=self.config.link_delay,
            data_queue_capacity=self.config.bat_queue_capacity,
            request_queue_capacity=self.config.request_queue_capacity,
            data_loss_rate=self.config.data_loss_rate,
            request_loss_rate=self.config.request_loss_rate,
            rng=self.rng.stream("loss"),
            bus=self.bus,
        )

        # what the facade and the fast-forwarder ask of all nodes at
        # once, kept current by the nodes' own S1/S2 mutators
        self.index = RingIndex(self.config.n_nodes)
        self.nodes: List[NodeRuntime] = [
            NodeRuntime(
                node_id=i,
                sim=self.sim,
                config=self.config,
                bus=self.bus,
                out_data=self.ring.data_channel(i),
                out_request=self.ring.request_channel(i),
                index=self.index,
            )
            for i in range(self.config.n_nodes)
        ]
        # Wire message delivery: node i receives BATs from its
        # predecessor's data channel and requests from its successor's
        # request channel.  The ring owns the wiring so it can repair the
        # topology when fault injection changes the live set.
        for i, node in enumerate(self.nodes):
            self.ring.install_node(i, node.on_bat_message, node.on_request_message)
            # Drops happen at the *sending* node's queue / channel.
            self.ring.data_channel(i).set_drop_handler(node.on_data_drop)
            self.ring.data_channel(i).set_loss_handler(node.on_data_loss)
        # The resilience manager (docs/resilience.md) interposes on the
        # request receivers before the first rewire so its liveness
        # monitors see every arrival; with resilience off nothing here
        # perturbs the paper-faithful event stream.
        self.resilience = None
        if self.config.resilience:
            from repro.resilience.manager import ResilienceManager

            self.resilience = ResilienceManager(self)
        self.ring.rewire(self.config.requests_clockwise)
        # Rotation fast-forwarding (docs/performance.md): built after the
        # wiring is final; decides per send whether a run of disinterested
        # hops can be coalesced.  Any injected fault disables it for the
        # rest of the run, so chaos scenarios execute the classic stream.
        self.ff = FastForwarder(self)
        if self.resilience is not None:
            # the failure detector's liveness monitors count raw request
            # arrivals per hop; skipping those hops would starve them
            self.ff.request_enabled = False
        if self.ff.active:
            for node in self.nodes:
                node._ff = self.ff

        self._bat_sizes: Dict[int, int] = {}
        self._bat_owner: Dict[int, int] = {}
        self._bat_replicas: Dict[int, List[int]] = {}
        self._next_owner = 0
        self._submitted = 0
        # arrivals posted for later (``FrontDoor.offer``) that may still
        # submit a query: whoever posts one counts it here and its
        # callback counts it off; run_until_done waits for them
        self.posted_arrivals = 0
        self._ticks_started = False
        # nodes whose LOIT sits above level 0; only _tick_loit moves it
        self._loit_raised = (
            (1 << self.config.n_nodes) - 1 if self.config.loit_initial_level else 0
        )
        # failed-but-unrepaired nodes (fail_node without repair_after_failure)
        self._unrepaired: set = set()
        self._failed_at: Dict[int, float] = {}
        # The membership view the wiring follows: every node except the
        # *acknowledged* dead (crashed or repaired-after-failure).  A
        # silently failed node stays a member until its repair, so the
        # ring keeps delivering into the corpse -- no oracle rewiring.
        self._members = set(range(self.config.n_nodes))

    # ------------------------------------------------------------------
    # data placement
    # ------------------------------------------------------------------
    def add_bat(
        self,
        bat_id: int,
        size: int,
        owner: Optional[int] = None,
        payload: Any = None,
        tag: Optional[str] = None,
    ) -> int:
        """Register a BAT with the ring; returns the owning node.

        Without an explicit ``owner`` BATs are spread round-robin, the
        paper's "randomly assigned ... uniformly distributed over all
        nodes" placement (any feasible partitioning scheme is allowed).
        """
        if bat_id in self._bat_sizes:
            raise ValueError(f"BAT {bat_id} already registered")
        if size <= 0:
            raise ValueError("BAT size must be positive")
        # a recycled id (multiring migration) may still be mid-flight
        self.ff.flush_bat(bat_id)
        if owner is None:
            owner = self._next_owner
            self._next_owner = (self._next_owner + 1) % self.config.n_nodes
        if not 0 <= owner < self.config.n_nodes:
            raise ValueError(f"owner {owner} out of range")
        self._bat_sizes[bat_id] = size
        self._bat_owner[bat_id] = owner
        # K-replica placement (docs/resilience.md): the primary plus the
        # next K-1 nodes clockwise hold a disk copy; on confirmed death
        # the first live replica is promoted to owner.
        replicas = [
            (owner + j) % self.config.n_nodes
            for j in range(self.config.replication_k)
        ]
        self._bat_replicas[bat_id] = replicas
        node = self.nodes[owner]
        node.s1.add(bat_id, size)
        if payload is not None:
            node.loader.payloads[bat_id] = payload
            for replica in replicas[1:]:
                self.nodes[replica].loader.payloads[bat_id] = payload
        if tag is not None:
            self.bus.publish(ev.BatTagged(self.sim.now, bat_id, tag))
        self.ff.set_population(len(self._bat_sizes))
        return owner

    def remove_bat(self, bat_id: int) -> Any:
        """Withdraw a BAT from this deployment; returns its payload (or None).

        Used by cross-ring fragment migration (repro.multiring).  The
        caller must have established quiescence first: no outstanding S2
        entries, no blocked pins, no disk fetch in flight.  A copy still
        circulating is retired at its (former) owner on the next pass --
        the regular swallow path of Hot Set Management.
        """
        self.ff.flush_bat(bat_id)
        owner = self._bat_owner.pop(bat_id)
        self._bat_sizes.pop(bat_id)
        replicas = self._bat_replicas.pop(bat_id, [owner])
        runtime = self.nodes[owner]
        payload = runtime.loader.payloads.pop(bat_id, None)
        for replica in replicas[1:]:
            self.nodes[replica].loader.payloads.pop(bat_id, None)
        runtime.s1.remove(bat_id)
        self.ff.set_population(len(self._bat_sizes))
        return payload

    def bat_owner(self, bat_id: int) -> int:
        return self._bat_owner[bat_id]

    def bat_size(self, bat_id: int) -> int:
        return self._bat_sizes[bat_id]

    def has_bat(self, bat_id: int) -> bool:
        return bat_id in self._bat_sizes

    @property
    def bat_ids(self) -> List[int]:
        return list(self._bat_sizes)

    @property
    def total_data_bytes(self) -> int:
        return sum(self._bat_sizes.values())

    # ------------------------------------------------------------------
    # workload submission
    # ------------------------------------------------------------------
    def submit(self, spec: QuerySpec) -> Process:
        """Schedule one query to register at its arrival time."""
        unknown = [b for b in spec.bat_ids if b not in self._bat_sizes]
        if unknown:
            raise ValueError(f"query {spec.query_id} references unknown BATs {unknown}")
        if not 0 <= spec.node < self.config.n_nodes:
            raise ValueError(f"query {spec.query_id} targets invalid node {spec.node}")
        runtime = self.nodes[spec.node]
        delay = spec.arrival - self.sim.now
        if delay < 0:
            raise ValueError(f"query {spec.query_id} arrives in the past")
        self._submitted += 1
        return Process(self.sim, query_process, runtime, spec, start_delay=delay)

    def submit_all(self, specs: Iterable[QuerySpec]) -> int:
        count = 0
        for spec in specs:
            self.submit(spec)
            count += 1
        return count

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _start_ticks(self) -> None:
        if self._ticks_started:
            return
        self._ticks_started = True
        total = sum(self._bat_sizes.values())
        mean_size = total / len(self._bat_sizes) if self._bat_sizes else 1024 * 1024
        self.config.note_total_data(total if total else 1024 * 1024)
        timeout = self.config.derived_resend_timeout(mean_size)
        for node in self.nodes:
            node.loss_timeout = timeout
        self.sim.post(self.config.load_all_interval, self._tick_load_all)
        self.sim.post(self.config.loit_adapt_interval, self._tick_loit)
        if self.resilience is not None:
            self.resilience.start()

    # Both ticks follow work, not positions: they visit the nodes that
    # can act, found in a ring-level mask, in node order.  The skips are
    # exact -- each names a state in which the callee returns unchanged.
    def _tick_load_all(self) -> None:
        # DataLoader.load_all starts nothing unless a load is pending
        for node in self._nodes_in(self.index.pending_nodes):
            node.tick_load_all()
        self.sim.post(self.config.load_all_interval, self._tick_load_all)

    def _tick_loit(self) -> None:
        # LoitController.observe cannot move a static threshold, nor step
        # up from an empty queue (load 0), nor down from level 0 -- and a
        # queue is only non-empty behind a busy link
        if self.config.loit_static is None:
            busy = self.ff.data_lane.busy & ((1 << self.config.n_nodes) - 1)
            for node in self._nodes_in(self._loit_raised | busy):
                if node.out_data.link._queued_bytes or node.loit.level:
                    level = node.loit.level
                    node.tick_loit()
                    if node.loit.level != level:
                        # the passes ahead read the old threshold
                        self.ff.loit_changed(node.node_id)
                    if node.loit.level:
                        self._loit_raised |= 1 << node.node_id
                    else:
                        self._loit_raised &= ~(1 << node.node_id)
        self.sim.post(self.config.loit_adapt_interval, self._tick_loit)

    def _nodes_in(self, mask: int) -> Iterable[NodeRuntime]:
        """The live nodes whose bit is set in ``mask``, in node order."""
        while mask:
            bit = mask & -mask
            mask ^= bit
            node = self.nodes[bit.bit_length() - 1]
            if not node.crashed:
                yield node

    def run(self, until: float) -> None:
        """Advance the simulation to absolute time ``until``."""
        self._start_ticks()
        self.sim.run(until=until)

    def run_until_done(self, max_time: float = 3600.0, check_interval: float = 1.0) -> bool:
        """Run until every submitted query finished and every posted
        arrival (:attr:`posted_arrivals`) happened, or ``max_time``.

        Returns True on full completion.  The periodic ticks never drain
        the event queue on their own, so completion is polled on a
        simulated-time grid.
        """
        self._start_ticks()
        while self.sim.now < max_time:
            if self._done():
                self.ff.flush_all()
                return True
            self.sim.run(until=min(self.sim.now + check_interval, max_time))
        self.ff.flush_all()
        return self._done()

    def _done(self) -> bool:
        return (
            self.completed_queries >= self._submitted
            and not self.posted_arrivals
        )

    def detach_metrics(self) -> None:
        """Unsubscribe the MetricsCollector from the bus.

        After this the collector stops accumulating (``summary()`` goes
        stale) and metrics-only events take the no-subscriber fast path
        -- the zero-observer configuration perf baselines run in.
        """
        self._detach_metrics()
        self._metrics_attached = False

    @property
    def metrics_attached(self) -> bool:
        """Whether :attr:`metrics` still hears this ring's bus, so that
        its ring load (``ring_bytes`` / ``ring_bats``) is current."""
        return self._metrics_attached

    # ------------------------------------------------------------------
    # fault injection (docs/faults.md)
    # ------------------------------------------------------------------
    def _validate_killable(self, node_id: int) -> None:
        if not 0 <= node_id < self.config.n_nodes:
            raise ValueError(f"node {node_id} out of range")
        if not self.ring.is_alive(node_id):
            raise ValueError(f"node {node_id} is already down")
        if len(self.ring.live_nodes) <= 1:
            raise ValueError("cannot crash the last live node")

    def _kill_node(self, node_id: int) -> None:
        """Physical death: volatile queues purged, runtime crashed."""
        now = self.sim.now
        # the dead node's transmit queues are volatile memory
        for msg, _size in self.ring.data_channel(node_id).purge_queue():
            self.bus.publish(ev.BatPurged(now, msg.bat_id, msg.size, node_id))
        self.ring.request_channel(node_id).purge_queue()
        self.nodes[node_id].crash()

    def _rehome_owned_bats(self, node_id: int) -> Tuple[Dict[int, int], List[int]]:
        """Apply the re-homing policy to everything ``node_id`` owned.

        Per BAT: promote the first live replica (``replication_k > 1``),
        else hand over to the live successor (``rehome_policy ==
        "successor"``, shared-storage assumption), else declare it
        unavailable.  Returns ``(rehomed {bat: adopter}, unavailable)``.
        """
        now = self.sim.now
        runtime = self.nodes[node_id]
        owned = sorted(
            bat_id for bat_id, owner in self._bat_owner.items() if owner == node_id
        )
        rehomed: Dict[int, int] = {}
        unavailable: List[int] = []
        for bat_id in owned:
            adopter_id: Optional[int] = None
            promoted = False
            if self.config.replication_k > 1:
                for candidate in self._bat_replicas.get(bat_id, []):
                    if candidate != node_id and self.ring.is_alive(candidate):
                        adopter_id = candidate
                        promoted = True
                        break
            elif self.config.rehome_policy == "successor":
                adopter_id = self.ring.live_successor(node_id)
            entry = runtime.s1.maybe(bat_id)
            if entry is None or entry.deleted:
                # deleted stubs are not re-homed; without a rescue policy
                # they are unavailable like everything else the node owned
                if adopter_id is None:
                    unavailable.append(bat_id)
                continue
            if adopter_id is None:
                unavailable.append(bat_id)
                continue
            payload = runtime.loader.payloads.pop(bat_id, None)
            runtime.s1.remove(bat_id)
            self._bat_owner[bat_id] = adopter_id
            self.bus.publish(ev.BatRehomed(now, bat_id, adopter_id))
            if promoted:
                self.bus.publish(ev.BatPromoted(now, bat_id, adopter_id))
            self.nodes[adopter_id].adopt_ownership(
                bat_id,
                size=entry.size,
                payload=payload,
                incarnation=entry.incarnation,
                version=entry.version,
            )
            rehomed[bat_id] = adopter_id
        return rehomed, unavailable

    def _notify_peer_down(
        self, node_id: int, unavailable: List[int], rehomed: List[int]
    ) -> None:
        for i, other in enumerate(self.nodes):
            if i != node_id and self.ring.is_alive(i):
                other.on_peer_down(node_id, unavailable, rehomed)

    def crash_node(self, node_id: int) -> None:
        """Kill ``node_id``: purge its queues, repair the ring around it,
        and apply the configured re-homing policy to the BATs it owned.

        This is the injector's *omniscient* crash: death, topology
        repair, re-homing and peer notification happen atomically.  The
        detector-driven alternative is :meth:`fail_node` +
        :meth:`repair_after_failure` (docs/resilience.md).

        With ``rehome_policy="successor"`` ownership moves to the live
        successor (shared-storage assumption); with ``"fail_fast"``
        requests for those BATs fail with DATA_UNAVAILABLE until rejoin.
        """
        self._validate_killable(node_id)
        self.ff.disable()
        now = self.sim.now

        # repair the topology first: traffic in flight bypasses the corpse
        self.ring.set_alive(node_id, False)
        self._members.discard(node_id)
        self.ring.rewire(self.config.requests_clockwise, members=self._members)
        self._kill_node(node_id)

        rehomed, unavailable = self._rehome_owned_bats(node_id)
        self._notify_peer_down(node_id, unavailable, sorted(rehomed))
        self.bus.publish(ev.NodeCrashed(now, node_id))

    def fail_node(self, node_id: int) -> None:
        """Kill ``node_id`` *silently*: no repair, no peer notification.

        The ring stays wired through the corpse -- traffic delivered
        into it is swallowed -- until something (normally the heartbeat
        detector) calls :meth:`repair_after_failure`.  This models a real
        crash, where no oracle tells the survivors.
        """
        self._validate_killable(node_id)
        self.ff.disable()
        now = self.sim.now
        self.ring.set_alive(node_id, False)
        self._kill_node(node_id)
        self._unrepaired.add(node_id)
        self._failed_at[node_id] = now
        self.bus.publish(ev.NodeFailed(now, node_id))

    def repair_after_failure(self, node_id: int) -> None:
        """Repair the ring around a silently-failed node.

        Rewires the topology, applies the per-BAT re-homing policy
        (replica promotion first), notifies the survivors -- failing
        pins blocked on unavailable BATs and re-issuing requests for
        re-homed ones -- and publishes :class:`~repro.events.types.RingRepaired`
        carrying the failure-to-repair latency.
        """
        if self.ring.is_alive(node_id):
            raise ValueError(f"node {node_id} is alive")
        if node_id not in self._unrepaired:
            raise ValueError(f"node {node_id} has no unrepaired failure")
        self.ff.disable()
        self._unrepaired.discard(node_id)
        now = self.sim.now
        # remove only the *confirmed* node from the membership: another
        # silently-failed corpse stays wired in until its own repair
        self._members.discard(node_id)
        self.ring.rewire(self.config.requests_clockwise, members=self._members)
        rehomed, unavailable = self._rehome_owned_bats(node_id)
        self._notify_peer_down(node_id, unavailable, sorted(rehomed))
        latency = now - self._failed_at.pop(node_id, now)
        self.bus.publish(ev.RingRepaired(now, node_id, latency))

    @property
    def unrepaired_failures(self) -> set:
        """Nodes killed by :meth:`fail_node` and not yet repaired."""
        return set(self._unrepaired)

    @property
    def members(self) -> set:
        """The membership view the wiring follows (acknowledged-dead excluded)."""
        return set(self._members)

    def wired_successor(self, node_id: int) -> int:
        """The node currently wired to receive ``node_id``'s clockwise
        traffic -- a silently-failed member, unlike ``live_successor``'s
        answer, until its death is acknowledged."""
        for step in range(1, self.config.n_nodes + 1):
            candidate = (node_id + step) % self.config.n_nodes
            if candidate in self._members:
                return candidate
        return node_id

    def rejoin_node(self, node_id: int) -> None:
        """Restart a crashed node and splice it back into the ring."""
        if not 0 <= node_id < self.config.n_nodes:
            raise ValueError(f"node {node_id} out of range")
        if self.ring.is_alive(node_id):
            raise ValueError(f"node {node_id} is already up")
        self.ff.disable()
        now = self.sim.now
        runtime = self.nodes[node_id]
        runtime.restart()
        self.ring.set_alive(node_id, True)
        self._members.add(node_id)
        self.ring.rewire(self.config.requests_clockwise, members=self._members)
        # a failed-but-undetected node that resurrects needs no repair
        self._unrepaired.discard(node_id)
        self._failed_at.pop(node_id, None)

        owned = sorted(
            bat_id for bat_id, owner in self._bat_owner.items() if owner == node_id
        )
        # the rejoiner learns the current failure state of the ring
        runtime.dead_peers = {
            i for i in range(self.config.n_nodes) if not self.ring.is_alive(i)
        }
        runtime.unavailable_bats = {
            bat_id
            for bat_id, owner in self._bat_owner.items()
            if not self.ring.is_alive(owner)
        }
        for i, other in enumerate(self.nodes):
            if i != node_id and self.ring.is_alive(i):
                other.on_peer_up(node_id, owned)
        self.bus.publish(ev.NodeRejoined(now, node_id, tuple(owned)))

    def degrade_link(
        self,
        node_id: int,
        direction: str = "data",
        bandwidth_factor: float = 1.0,
        extra_delay: float = 0.0,
        loss_rate: Optional[float] = None,
        duration: Optional[float] = None,
    ) -> None:
        """Degrade ``node_id``'s outgoing channel(s); auto-heal after
        ``duration`` seconds (None = permanent)."""
        if direction not in ("data", "request", "both"):
            raise ValueError("direction must be 'data', 'request' or 'both'")
        self.ff.disable()
        channels = []
        if direction in ("data", "both"):
            channels.append(self.ring.data_channel(node_id))
        if direction in ("request", "both"):
            channels.append(self.ring.request_channel(node_id))
        saved = [
            (ch, ch.degrade(bandwidth_factor, extra_delay, loss_rate))
            for ch in channels
        ]
        self.bus.publish(ev.LinkDegraded(self.sim.now, node_id, direction))
        if duration is not None:
            self.sim.post(duration, self._restore_links, node_id, saved)

    def _restore_links(self, node_id: int, saved) -> None:
        for ch, settings in saved:
            ch.restore(settings)
        self.bus.publish(ev.LinkRestored(self.sim.now, node_id))

    @property
    def live_node_ids(self) -> List[int]:
        return self.ring.live_nodes

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def submitted_queries(self) -> int:
        return self._submitted

    @property
    def completed_queries(self) -> int:
        return self.index.completed

    @property
    def ring_load_bytes(self) -> float:
        """Current bytes of hot-set data in circulation (Figure 7a)."""
        return self.metrics.ring_bytes.current

    @property
    def ring_load_bats(self) -> float:
        return self.metrics.ring_bats.current

    def summary(self) -> dict:
        """Headline counters of the run so far (for reports and shells)."""
        # land any coalesced flights so link stats, forward counters and
        # the processed-event count match a classic run at this instant
        self.ff.flush_all()
        metrics = self.metrics
        lifetimes = metrics.lifetimes()
        base = {
            "simulated_seconds": round(self.sim.now, 6),
            "queries_submitted": self._submitted,
            "queries_finished": metrics.finished_count(),
            "queries_failed": sum(1 for r in metrics.queries.values() if r.failed),
            "mean_lifetime": (
                sum(lifetimes) / len(lifetimes) if lifetimes else 0.0
            ),
            "bat_loads": sum(s.loads for s in metrics.bats.values()),
            "bat_unloads": sum(s.unloads for s in metrics.bats.values()),
            "bat_messages_forwarded": metrics.bat_messages_forwarded,
            "requests_sent": metrics.requests_sent,
            "requests_absorbed": metrics.requests_absorbed,
            "resends": metrics.resends,
            "droptail_drops": metrics.droptail_drops,
            "loss_drops": metrics.loss_drops,
            "loit_changes": metrics.loit_changes,
            "ring_load_bytes": self.ring_load_bytes,
            "events_processed": self.sim.processed,
            # fault-injection outcomes (docs/faults.md)
            "queries_degraded": metrics.degraded_count(),
            "queries_unavailable": metrics.unavailable_count(),
            "crash_drops": metrics.crash_drops,
            "bats_rehomed": metrics.bats_rehomed,
            "bats_adopted": metrics.bats_adopted,
            "orphans_retired": metrics.orphans_retired,
            "total_downtime": round(metrics.total_downtime(self.sim.now), 6),
            "mean_recovery_latency": (
                round(
                    sum(metrics.recovery_latencies) / len(metrics.recovery_latencies),
                    6,
                )
                if metrics.recovery_latencies
                else 0.0
            ),
            # resilience outcomes (docs/resilience.md); all zero with
            # resilience off
            "nodes_failed": metrics.nodes_failed,
            "node_suspicions": metrics.node_suspicions,
            "nodes_confirmed_dead": metrics.nodes_confirmed_dead,
            "ring_repairs": metrics.ring_repairs,
            "mean_repair_latency": (
                round(
                    sum(metrics.repair_latencies) / len(metrics.repair_latencies), 6
                )
                if metrics.repair_latencies
                else 0.0
            ),
            "resends_abandoned": metrics.resends_abandoned,
            "bats_promoted": metrics.bats_promoted,
            "queries_retried": metrics.queries_retried,
            "queries_abandoned": metrics.queries_abandoned,
            "queries_shed": metrics.queries_shed,
            "stale_results_discarded": metrics.stale_results_discarded,
        }
        if self.resilience is not None:
            base.update(self.resilience.stats())
        return base

    def cpu_utilisation(self, horizon: Optional[float] = None) -> float:
        """Average core utilisation across the ring (Table 4, CPU%)."""
        span = horizon if horizon is not None else self.sim.now
        if span <= 0:
            return 0.0
        busy = sum(n.cores.busy_time() for n in self.nodes)
        return busy / (span * self.config.n_nodes * self.config.cores_per_node)
