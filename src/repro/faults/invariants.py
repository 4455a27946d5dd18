"""Ring-level invariants the chaos harness asserts at every fault point.

Each check returns a list of human-readable violation strings (empty
means the invariant holds).  They are designed to be evaluated *between*
simulation events -- message handling is synchronous, so at that point
every circulating BAT copy is either queued in a transmit queue or on
the wire, which makes exact byte conservation checkable.

:class:`InvariantMonitor` packages the checks as an event-bus subscriber:
it audits the ring at every fault event (crash, rejoin, link
degradation) in *any* simulation that publishes them -- not only chaos
harness runs.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.messages import BATMessage
from repro.core.ring import DataCyclotron
from repro.events import types as ev
from repro.events.bus import Bus

__all__ = [
    "InvariantMonitor",
    "check_invariants",
    "check_owner_passes",
    "check_request_index",
    "check_stop_index",
    "check_terminal",
]


def _circulating_bats(dc: DataCyclotron):
    """Every BAT message in any data channel (queued or on the wire)."""
    for node_id in range(dc.config.n_nodes):
        channel = dc.ring.data_channel(node_id)
        for message, _size in channel.in_channel_items():
            if isinstance(message, BATMessage):
                yield node_id, message


def check_conservation(dc: DataCyclotron) -> List[str]:
    """Ring-load accounting matches the bytes physically in the ring.

    Only a collector that hears the bus keeps a ring load; on a ring
    that called ``detach_metrics()`` there is nothing to check."""
    if not dc.metrics_attached:
        return []
    violations = []
    actual_bytes = sum(msg.size for _, msg in _circulating_bats(dc))
    actual_count = sum(1 for _ in _circulating_bats(dc))
    recorded_bytes = dc.metrics.ring_bytes.current
    recorded_count = dc.metrics.ring_bats.current
    if recorded_bytes != actual_bytes:
        violations.append(
            f"ring byte conservation: metrics say {recorded_bytes}, "
            f"channels hold {actual_bytes}"
        )
    if recorded_count != actual_count:
        violations.append(
            f"ring BAT-count conservation: metrics say {recorded_count}, "
            f"channels hold {actual_count}"
        )
    return violations


def check_no_orphans(dc: DataCyclotron) -> List[str]:
    """Every circulating copy has a live owner, or a dead owner that all
    live nodes know about (so the copy is retired/adopted on its next
    hop).  Nothing may cycle forever without an owner.

    A *silent* failure (``fail_node``) is exempt while unrepaired: by
    design nobody has been told yet, and the un-rewired ring funnels the
    dead owner's copies into its purged queues rather than cycling them.
    """
    violations = []
    live = [n for n in dc.nodes if not n.crashed]
    unrepaired = dc.unrepaired_failures
    for node_id, msg in _circulating_bats(dc):
        if dc.ring.is_alive(msg.owner) or msg.owner in unrepaired:
            continue
        unaware = [n.node_id for n in live if msg.owner not in n.dead_peers]
        if unaware:
            violations.append(
                f"orphaned BAT {msg.bat_id} (owner {msg.owner} dead) in "
                f"channel of node {node_id}; nodes {unaware} unaware"
            )
    return violations


def check_timer_hygiene(dc: DataCyclotron) -> List[str]:
    """Resend timers exist only on live nodes and only for open requests."""
    violations = []
    for node in dc.nodes:
        if node.crashed:
            if node._resend_timers:
                violations.append(
                    f"crashed node {node.node_id} still holds resend timers "
                    f"for {sorted(node._resend_timers)}"
                )
            continue
        for bat_id, event in node._resend_timers.items():
            if event.cancelled:
                violations.append(
                    f"node {node.node_id} holds a cancelled timer for BAT {bat_id}"
                )
            if not node.s2.has(bat_id):
                violations.append(
                    f"node {node.node_id} holds a resend timer for BAT "
                    f"{bat_id} with no outstanding request"
                )
    return violations


def check_ownership(dc: DataCyclotron) -> List[str]:
    """Each BAT has exactly one owner and the catalogs agree with the
    facade's owner map."""
    violations = []
    for bat_id in dc.bat_ids:
        owner = dc.bat_owner(bat_id)
        holders = [
            node.node_id
            for node in dc.nodes
            if node.s1.maybe(bat_id) is not None and not node.s1.get(bat_id).deleted
        ]
        if holders != [owner]:
            violations.append(
                f"BAT {bat_id}: owner map says {owner}, catalogs say {holders}"
            )
    return violations


def check_pin_accounting(dc: DataCyclotron) -> List[str]:
    """Pinned-byte counters agree with the cache contents on live nodes."""
    violations = []
    for node in dc.nodes:
        if node.crashed:
            if node.cache or node.pinned_bytes:
                violations.append(
                    f"crashed node {node.node_id} retains pinned memory"
                )
            continue
        cached = sum(c.size for c in node.cache.values())
        if cached != node.pinned_bytes:
            violations.append(
                f"node {node.node_id}: pinned_bytes={node.pinned_bytes} but "
                f"cache holds {cached}"
            )
        violations.extend(
            f"node {node.node_id}: BAT {bat_id} refcount {entry.refcount} < 0"
            for bat_id, entry in node.cache.items() if entry.refcount < 0
        )
    return violations


def check_request_index(dc: DataCyclotron) -> List[str]:
    """S2's per-query index names every (query, BAT) it must be able to
    drop: each query of a live node's S2 entry and each blocked pin in
    its S3.  (The converse is not required -- the index may be stale.)
    A crashed node has no index left."""
    violations = []
    for node in dc.nodes:
        index = node.s2._by_query
        if node.crashed:
            if index:
                violations.append(
                    f"crashed node {node.node_id} still indexes queries "
                    f"{sorted(index)[:10]}"
                )
            continue
        held = [(q, entry.bat_id) for entry in node.s2 for q in entry.queries]
        held += [
            (q, bat_id)
            for bat_id in node.s3.bat_ids()
            for q in node.s3.waiting_queries(bat_id)
        ]
        violations.extend(
            f"node {node.node_id}: query {q} holds BAT {bat_id} in S2/S3 "
            f"but the request index does not list it"
            for q, bat_id in held
            if bat_id not in index.get(q, ())
        )
    return violations


def check_stop_index(dc: DataCyclotron) -> List[str]:
    """The ring-level view of S1 and S2 (``RingIndex``) is exact: per
    BAT, the positions listed as holding an S2 entry / owning it are
    those whose tables say so (and a BAT nobody lists has no entry);
    the nodes listed with a pending load are those with a non-zero
    pending count."""
    violations = []
    index = dc.index
    for name, masks, in_table in (
        ("S2", index.requested, lambda node, bat_id: node.s2.has(bat_id)),
        ("S1", index.owned, lambda node, bat_id: node.s1.owns(bat_id)),
    ):
        bat_ids = set(masks)
        for node in dc.nodes:
            bat_ids.update(
                node.s2.bat_ids() if name == "S2" else (b.bat_id for b in node.s1)
            )
        for bat_id in sorted(bat_ids):
            actual = 0
            for node in dc.nodes:
                if in_table(node, bat_id):
                    actual |= index.bits[node.node_id]
            if masks.get(bat_id) != (actual or None):
                violations.append(
                    f"stop index: BAT {bat_id} listed at {name} positions "
                    f"{masks.get(bat_id)}, tables say {actual:#x}"
                )
    pending = sum(1 << node.node_id for node in dc.nodes if node.s1.pending_count)
    if pending != index.pending_nodes:
        violations.append(
            f"stop index: pending nodes listed {index.pending_nodes:#x}, "
            f"catalogs say {pending:#x}"
        )
    return violations


def check_owner_passes(dc: DataCyclotron) -> List[str]:
    """No fast-forward flight has an owner pass ahead in closed form while
    an S2 entry anywhere on the ring asks for its BAT: every registration
    lands such a flight first (``FastForwarder.flush_bat``), so the
    classic code meets the requester."""
    requested = dc.index.requested
    return [
        f"owner pass: BAT {flight.bat_id} flies through owner {flight.msg.owner} "
        f"at hop {flight.next_pass()} while S2 positions {requested[flight.bat_id]:#x} "
        f"ask for it"
        for flight in dc.ff.passing()
        if requested.get(flight.bat_id)
    ]


def check_invariants(dc: DataCyclotron) -> List[str]:
    """All fault-point invariants; empty list = the ring is consistent."""
    return (
        check_conservation(dc)
        + check_no_orphans(dc)
        + check_timer_hygiene(dc)
        + check_ownership(dc)
        + check_pin_accounting(dc)
        + check_request_index(dc)
        + check_stop_index(dc)
        + check_owner_passes(dc)
    )


class InvariantMonitor:
    """Audits the ring after every fault, driven by the event bus.

    Subscribes to :class:`~repro.events.types.NodeCrashed`,
    :class:`~repro.events.types.NodeRejoined` and
    :class:`~repro.events.types.LinkDegraded`.  The facade publishes each
    of these at the *end* of the corresponding fault action, after the
    topology repair and re-homing completed, so the invariants are
    checked at exactly the consistency point the chaos harness used to
    probe via its injector callback -- but the monitor works in any
    simulation, with or without a :class:`FaultInjector`.
    """

    _KINDS = {
        ev.NodeCrashed: "crash",
        ev.NodeFailed: "fail",
        ev.RingRepaired: "repair",
        ev.NodeRejoined: "rejoin",
        ev.LinkDegraded: "degrade",
    }

    def __init__(self, dc: DataCyclotron, bus: Optional[Bus] = None):
        self.dc = dc
        self.checks = 0
        self.log: List[str] = []
        self.violations: List[str] = []
        self._bus = bus if bus is not None else dc.bus
        self._bus.subscribe_many(self._KINDS, self._on_fault)

    def detach(self) -> None:
        """Stop auditing (idempotent)."""
        for event_type in self._KINDS:
            self._bus.unsubscribe(event_type, self._on_fault)

    @property
    def ok(self) -> bool:
        return not self.violations

    def _on_fault(self, event) -> None:
        kind = self._KINDS[type(event)]
        self.checks += 1
        found = check_invariants(self.dc)
        live = len(self.dc.live_node_ids)
        self.log.append(
            f"t={self.dc.now:.3f} {kind} node={event.node} live={live} "
            f"violations={len(found)}"
        )
        self.violations.extend(f"after {kind}@{event.t:.3f}: {v}" for v in found)


def check_terminal(dc: DataCyclotron) -> List[str]:
    """End-of-run obligations: every query terminated (finished, failed,
    or DATA_UNAVAILABLE -- never a hang) and no dead-owner copy is still
    circulating."""
    violations = []
    unterminated = [
        rec.query_id
        for rec in dc.metrics.queries.values()
        if rec.finished_at is None
    ]
    if unterminated:
        violations.append(f"queries never terminated: {sorted(unterminated)[:10]}")
    stale = sorted(
        {msg.bat_id for _, msg in _circulating_bats(dc) if not dc.ring.is_alive(msg.owner)}
    )
    if stale:
        violations.append(f"dead-owner BATs still circulating: {stale}")
    # the leak check: a query that never reached release_query is still
    # listed here long before it would show as memory drift
    leaked = sorted(q for node in dc.nodes for q in node.s2._by_query)
    if leaked:
        violations.append(f"request index not empty at quiescence: {leaked[:10]}")
    return violations + check_invariants(dc)
