"""The event taxonomy: every observable action of the Data Cyclotron.

One slotted ``@dataclass`` per event kind, grouped by the paper section
that motivates it (see docs/events.md for the full taxonomy and the
mapping from the section 5 figures to the events that feed them).  All
events carry the simulated timestamp ``t``; protocol events also carry
the publishing ``node`` so traces can be split per ring position.

Events are plain data -- no behaviour, no references into the runtime --
so any subscriber (metrics, tracer, invariant monitor, a future live
dashboard) can retain them safely.  They are deliberately *not* frozen:
tens of thousands are constructed per simulated second, and a frozen
dataclass pays ``object.__setattr__`` per field at construction time.
Subscribers must treat received events as immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

__all__ = [
    # query lifecycle (Figures 6, 8; Table 4)
    "QueryRegistered",
    "QueryFinished",
    "QueryFailed",
    "QueryDegraded",
    # BAT lifecycle (Figures 7, 9, 11)
    "BatTagged",
    "BatLoaded",
    "BatUnloaded",
    "BatTouched",
    "BatPinned",
    "BatCycled",
    "BatDropped",
    "BatForwarded",
    # request propagation (Figure 3, Figure 10)
    "RequestCreated",
    "RequestForwarded",
    "RequestAbsorbed",
    "RequestReturnedToOrigin",
    "RequestServed",
    "RequestResent",
    "RequestUnavailable",
    # loader / hot-set management (Figures 4, 5)
    "LoadPostponed",
    "LoitChanged",
    # fault injection (docs/faults.md)
    "NodeCrashed",
    "NodeRejoined",
    "BatPurged",
    "BatRehomed",
    "BatAdopted",
    "OrphanRetired",
    "LinkDegraded",
    "LinkRestored",
    "FaultInjected",
    # resilience: failure detection + retry/failover (docs/resilience.md)
    "NodeFailed",
    "NodeSuspected",
    "NodeSuspicionCleared",
    "NodeConfirmedDead",
    "RingRepaired",
    "ResendAbandoned",
    "BatPromoted",
    "QueryRetried",
    "QueryAbandoned",
    "QueryShed",
    "StaleResultDiscarded",
    # closed-loop overload control (docs/overload.md)
    "OverloadStateChanged",
    "TierShed",
    "RetryBudgetExhausted",
    # network layer (section 5 setup)
    "LinkTransmit",
    "LinkDelivered",
    "LinkDropped",
    "ChannelLoss",
    # pulsating rings (section 6.3, docs/multiring.md)
    "RingLeaveVolunteered",
    "RingJoinCalled",
    # multi-ring federation (docs/multiring.md)
    "CrossRingRequest",
    "CrossRingTransfer",
    "QueryShipped",
    "MigrationStarted",
    "FragmentMigrated",
    "MigrationAborted",
    "RingSplit",
    "RingsMerged",
    "GatewayFailed",
    "GatewayElected",
    "ServeHandedOff",
    # query processing units (docs/qpu.md)
    "QpuQueryRouted",
    "KvProbeServed",
    "StreamBatConsumed",
    # front-door serving tier (docs/frontdoor.md)
    "QueryEstimated",
    "FrontDoorAdmitted",
    "FrontDoorRejected",
    "EstimateFeedback",
    # simulation engine
    "RotationFastForwarded",
    "PartitionSynced",
    "TimeGrantIssued",
    "SimEventFired",
]


# ----------------------------------------------------------------------
# query lifecycle
# ----------------------------------------------------------------------
@dataclass(slots=True)
class QueryRegistered:
    """A query arrived at ``node`` and entered the system."""

    t: float
    query_id: int
    node: int
    tag: str = ""


@dataclass(slots=True)
class QueryFinished:
    """All operators of the query completed successfully."""

    t: float
    query_id: int
    node: int


@dataclass(slots=True)
class QueryFailed:
    """The query terminated with an error (e.g. ``DATA_UNAVAILABLE``)."""

    t: float
    query_id: int
    error: str
    node: int


@dataclass(slots=True)
class QueryDegraded:
    """The query needed fault recovery (resend / re-home / orphan serve)."""

    t: float
    query_id: int
    node: int


# ----------------------------------------------------------------------
# BAT lifecycle
# ----------------------------------------------------------------------
@dataclass(slots=True)
class BatTagged:
    """A workload tag (e.g. ``dh2``) was attached to a BAT (Figure 8a)."""

    t: float
    bat_id: int
    tag: str


@dataclass(slots=True)
class BatLoaded:
    """The owner put the BAT into the storage ring (Figure 4, load)."""

    t: float
    bat_id: int
    size: int
    node: int


@dataclass(slots=True)
class BatUnloaded:
    """The owner pulled the BAT out of the hot set (Figure 5, unload)."""

    t: float
    bat_id: int
    size: int
    node: int


@dataclass(slots=True)
class BatTouched:
    """A node pinned the passing BAT into local memory (a "copy")."""

    t: float
    bat_id: int
    node: int


@dataclass(slots=True)
class BatPinned:
    """``count`` pin() calls were served for the BAT at ``node``."""

    t: float
    bat_id: int
    node: int
    count: int = 1


@dataclass(slots=True)
class BatCycled:
    """The BAT completed its ``cycles``-th ring rotation (Figure 11)."""

    t: float
    bat_id: int
    cycles: int
    node: int


@dataclass(slots=True)
class BatDropped:
    """A BAT copy was lost in transit: DropTail or injected loss."""

    t: float
    bat_id: int
    size: int
    by_loss: bool
    node: int


@dataclass(slots=True)
class BatForwarded:
    """``node`` enqueued a BAT message for its successor."""

    t: float
    bat_id: int
    node: int


# ----------------------------------------------------------------------
# request propagation (Figure 3)
# ----------------------------------------------------------------------
@dataclass(slots=True)
class RequestCreated:
    """A request message entered the ring anti-clockwise."""

    t: float
    bat_id: int
    node: int


@dataclass(slots=True)
class RequestForwarded:
    """Outcome 6: the request passed through ``node`` unchanged."""

    t: float
    bat_id: int
    node: int


@dataclass(slots=True)
class RequestAbsorbed:
    """Outcome 5: a passing request doubled as this node's own."""

    t: float
    bat_id: int
    node: int


@dataclass(slots=True)
class RequestReturnedToOrigin:
    """Outcome 1: the request circled the ring unanswered."""

    t: float
    bat_id: int
    node: int


@dataclass(slots=True)
class RequestServed:
    """The first pin was served ``latency`` seconds after the request."""

    t: float
    bat_id: int
    latency: float
    node: int


@dataclass(slots=True)
class RequestResent:
    """The rotational-delay timeout fired and the request was re-issued."""

    t: float
    bat_id: int
    node: int


@dataclass(slots=True)
class RequestUnavailable:
    """A request failed fast: the BAT's owner is dead (docs/faults.md)."""

    t: float
    bat_id: int
    node: int


# ----------------------------------------------------------------------
# loader / hot-set management
# ----------------------------------------------------------------------
@dataclass(slots=True)
class LoadPostponed:
    """Outcome 3: the BAT queue is full, the load waits for ``loadAll``."""

    t: float
    bat_id: int
    node: int


@dataclass(slots=True)
class LoitChanged:
    """The adaptive LOIT controller stepped to a new ``threshold``."""

    t: float
    node: int
    threshold: float


# ----------------------------------------------------------------------
# fault injection (docs/faults.md)
# ----------------------------------------------------------------------
@dataclass(slots=True)
class NodeCrashed:
    """``node`` died: queues purged, ring rewired, peers notified."""

    t: float
    node: int


@dataclass(slots=True)
class NodeRejoined:
    """``node`` restarted with an empty hot set and was spliced back."""

    t: float
    node: int
    owned_bats: List[int]


@dataclass(slots=True)
class BatPurged:
    """A BAT message died with a crashed node's volatile queues."""

    t: float
    bat_id: int
    size: int
    node: int


@dataclass(slots=True)
class BatRehomed:
    """Ownership of the BAT moved off a dead node to ``new_owner``."""

    t: float
    bat_id: int
    new_owner: int


@dataclass(slots=True)
class BatAdopted:
    """A circulating copy of a re-homed BAT was claimed by its new owner."""

    t: float
    bat_id: int
    node: int


@dataclass(slots=True)
class OrphanRetired:
    """A dead owner's copy was pulled out of circulation at ``node``."""

    t: float
    bat_id: int
    size: int
    node: int


@dataclass(slots=True)
class LinkDegraded:
    """``node``'s outgoing channel(s) were degraded by fault injection."""

    t: float
    node: int
    direction: str


@dataclass(slots=True)
class LinkRestored:
    """A timed link degradation healed."""

    t: float
    node: int


@dataclass(slots=True)
class FaultInjected:
    """The injector fired one scheduled scenario event (``kind``)."""

    t: float
    kind: str
    node: int


# ----------------------------------------------------------------------
# resilience: failure detection, repair, retry (docs/resilience.md)
# ----------------------------------------------------------------------
@dataclass(slots=True)
class NodeFailed:
    """``node`` died *silently*: queues purged, no repair yet.

    Unlike :class:`NodeCrashed` (the injector's omniscient crash+repair),
    a failed node leaves the ring wedged until the heartbeat detector
    confirms the death and triggers :class:`RingRepaired`.
    """

    t: float
    node: int


@dataclass(slots=True)
class NodeSuspected:
    """``by``'s failure detector crossed the suspicion threshold for ``node``."""

    t: float
    node: int
    by: int
    phi: float


@dataclass(slots=True)
class NodeSuspicionCleared:
    """Liveness traffic from ``node`` resumed; ``by`` withdrew suspicion."""

    t: float
    node: int
    by: int


@dataclass(slots=True)
class NodeConfirmedDead:
    """``by``'s phi score for ``node`` crossed the confirmation threshold."""

    t: float
    node: int
    by: int
    phi: float


@dataclass(slots=True)
class RingRepaired:
    """Detector-driven repair completed: topology rewired, BATs re-homed.

    ``latency`` is seconds from the physical failure to this repair --
    the detection + repair latency the recovery report tracks.
    """

    t: float
    node: int
    latency: float


@dataclass(slots=True)
class ResendAbandoned:
    """Resend escalation gave up on ``bat_id`` after ``resends`` attempts."""

    t: float
    bat_id: int
    node: int
    resends: int


@dataclass(slots=True)
class BatPromoted:
    """A replica owner took over ``bat_id`` from a dead primary."""

    t: float
    bat_id: int
    node: int


@dataclass(slots=True)
class QueryRetried:
    """The retry manager re-dispatched the query (``attempt`` >= 2)."""

    t: float
    query_id: int
    attempt: int
    node: int
    error: str


@dataclass(slots=True)
class QueryAbandoned:
    """Retry budget or deadline exhausted; the query failed terminally."""

    t: float
    query_id: int
    attempts: int
    error: str


@dataclass(slots=True)
class QueryShed:
    """Admission control fast-failed the query.

    Published by the suspicion valve (ring-wide detector knowledge), the
    :class:`~repro.dbms.executor.RingDatabase` byte valve (``engine``
    carries the refused engine class then), the overload controller's
    brownout gate (docs/overload.md), and the front door's estimate
    valve (docs/frontdoor.md).

    ``reason`` distinguishes who refused: ``"tier-shed"`` (overload
    controller), ``"byte-valve"`` (dispatcher admission),
    ``"front-door-estimate"`` (statistics-driven front door).  Empty
    when the publisher predates the taxonomy; the metrics bridge only
    counts non-empty reasons, so unset stays bit-identical.
    """

    t: float
    query_id: int
    node: int
    engine: str = ""
    reason: str = ""


@dataclass(slots=True)
class StaleResultDiscarded:
    """A superseded attempt completed; its result was suppressed."""

    t: float
    query_id: int
    attempt: int


# ----------------------------------------------------------------------
# closed-loop overload control (docs/overload.md)
# ----------------------------------------------------------------------
@dataclass(slots=True)
class OverloadStateChanged:
    """The overload controller moved its brownout level.

    ``level`` is the new shed level (queries with ``tier < level`` are
    refused); ``state`` is the coarse label (``normal`` / ``brownout``
    / ``overload``); ``p99`` is the rolling windowed p99 that drove the
    transition.
    """

    t: float
    level: int
    state: str
    p99: float


@dataclass(slots=True)
class TierShed:
    """The brownout gate refused one query of priority ``tier``."""

    t: float
    query_id: int
    tier: int
    node: int


@dataclass(slots=True)
class RetryBudgetExhausted:
    """The cluster-wide retry token bucket ran dry for this re-dispatch.

    The logical query fails terminally (``QueryAbandoned`` follows)
    instead of amplifying load on an already-degraded ring.
    """

    t: float
    query_id: int
    attempts: int


# ----------------------------------------------------------------------
# network layer
# ----------------------------------------------------------------------
@dataclass(slots=True)
class LinkTransmit:
    """A message started serialising onto the wire of ``link``."""

    t: float
    link: str
    size: int
    mtype: str


@dataclass(slots=True)
class LinkDelivered:
    """A message fully arrived at the far end of ``link``."""

    t: float
    link: str
    size: int
    mtype: str


@dataclass(slots=True)
class LinkDropped:
    """DropTail discarded a message from ``link``'s full transmit queue."""

    t: float
    link: str
    size: int
    mtype: str


@dataclass(slots=True)
class ChannelLoss:
    """Injected loss ate a message on ``channel``."""

    t: float
    channel: str
    size: int
    mtype: str


# ----------------------------------------------------------------------
# pulsating rings (section 6.3, docs/multiring.md)
# ----------------------------------------------------------------------
@dataclass(slots=True)
class RingLeaveVolunteered:
    """A node's exploitation stayed under the leave threshold long enough."""

    t: float
    node: int
    ring: int = 0


@dataclass(slots=True)
class RingJoinCalled:
    """A node crossed the join threshold: the ring wants reinforcements."""

    t: float
    node: int
    ring: int = 0


# ----------------------------------------------------------------------
# multi-ring federation (docs/multiring.md)
# ----------------------------------------------------------------------
@dataclass(slots=True)
class CrossRingRequest:
    """A gateway dispatched a fetch for a BAT homed on another ring."""

    t: float
    bat_id: int
    from_ring: int
    to_ring: int
    resend: bool = False


@dataclass(slots=True)
class CrossRingTransfer:
    """A remote gateway shipped a BAT copy back across the inter-ring link."""

    t: float
    bat_id: int
    from_ring: int
    to_ring: int
    size: int
    latency: float


@dataclass(slots=True)
class QueryShipped:
    """A whole query moved to the ring that holds most of its data."""

    t: float
    query_id: int
    from_ring: int
    to_ring: int
    node: int


@dataclass(slots=True)
class MigrationStarted:
    """The placement manager began re-homing a fragment to another ring."""

    t: float
    bat_id: int
    from_ring: int
    to_ring: int
    size: int


@dataclass(slots=True)
class FragmentMigrated:
    """A fragment migration completed: the BAT is homed on ``to_ring``."""

    t: float
    bat_id: int
    from_ring: int
    to_ring: int
    size: int
    latency: float


@dataclass(slots=True)
class MigrationAborted:
    """An in-flight migration was rolled back (gateway death, lost link)."""

    t: float
    bat_id: int
    from_ring: int
    to_ring: int
    reason: str


@dataclass(slots=True)
class RingSplit:
    """The split/merge controller activated a standby ring for a hot one."""

    t: float
    from_ring: int
    new_ring: int
    fragments: int


@dataclass(slots=True)
class RingsMerged:
    """An underutilized ring drained its fragments into another ring."""

    t: float
    from_ring: int
    into_ring: int
    fragments: int


@dataclass(slots=True)
class GatewayFailed:
    """A ring's gateway node died; cross-ring traffic re-routes."""

    t: float
    ring: int
    node: int


@dataclass(slots=True)
class GatewayElected:
    """A new gateway took over a ring's inter-ring endpoints."""

    t: float
    ring: int
    node: int


@dataclass(slots=True)
class ServeHandedOff:
    """An in-flight fetch serve moved off a dead gateway to ``to_node``.

    Published when the gateway guard re-dispatches a pending
    :class:`~repro.multiring.messages.FetchRequest` on the freshly
    elected gateway instead of letting the requester wait out its
    resend timeout -- the mechanism that cuts the failover tail out of
    the gateway-chaos scenario's p999 (docs/workloads.md).
    """

    t: float
    bat_id: int
    ring: int
    from_node: int
    to_node: int


# ----------------------------------------------------------------------
# query processing units (docs/qpu.md)
# ----------------------------------------------------------------------
@dataclass(slots=True)
class QpuQueryRouted:
    """The dispatcher handed a query to the ``engine`` QPU on ``node``.

    ``footprint`` is the number of BATs the compiled query declared it
    will touch; ``cost`` the engine's pre-execution cost estimate.
    """

    t: float
    query_id: int
    engine: str
    node: int
    footprint: int
    cost: float


@dataclass(slots=True)
class KvProbeServed:
    """The KV engine answered a point lookup (``hit=False``: unknown key)."""

    t: float
    query_id: int
    bat_id: int
    node: int
    hit: bool


@dataclass(slots=True)
class StreamBatConsumed:
    """The streaming engine folded one partition as it rotated past."""

    t: float
    query_id: int
    bat_id: int
    node: int
    rows: int


# ----------------------------------------------------------------------
# front-door serving tier (docs/frontdoor.md)
# ----------------------------------------------------------------------
@dataclass(slots=True)
class QueryEstimated:
    """The statistics estimator priced a request before compilation.

    ``footprint_bytes``/``cost`` are the predicted persistent footprint
    and one-pass operator cost; ``tier`` and ``deadline`` are the
    serving class the front door derived from them (higher tier = more
    protected = smaller predicted footprint).
    """

    t: float
    query_id: int
    node: int
    engine: str
    footprint_bytes: int
    cost: float
    selectivity: float
    tier: int
    deadline: float


@dataclass(slots=True)
class FrontDoorAdmitted:
    """The front door admitted the request into the ring database."""

    t: float
    query_id: int
    node: int
    engine: str
    tier: int
    deadline: float
    estimated_bytes: int


@dataclass(slots=True)
class FrontDoorRejected:
    """The front door refused the request at arrival time.

    Always paired with a ``QueryShed(reason="front-door-estimate")`` so
    SLO accounting sees the refusal; ``cause`` carries the finer-grained
    trigger (``budget`` / ``single-query-cap`` / ``controller`` /
    ``estimate-error``).
    """

    t: float
    query_id: int
    node: int
    engine: str
    tier: int
    estimated_bytes: int
    cause: str


@dataclass(slots=True)
class EstimateFeedback:
    """Predicted-vs-actual closure for one front-door query.

    Published at completion: ``actual_bytes`` comes from the compiled
    footprint, ``service_time`` from registration-to-finish on the
    ring.  The estimator folds the same observation into its per-class
    accuracy report (`repro stats`).
    """

    t: float
    query_id: int
    engine: str
    query_class: str
    predicted_bytes: int
    actual_bytes: int
    predicted_cost: float
    service_time: float


# ----------------------------------------------------------------------
# simulation engine
# ----------------------------------------------------------------------
@dataclass(slots=True)
class RotationFastForwarded:
    """A flight coalesced ``hops`` disinterested ring hops into one event.

    Published when a rotation fast-forward flight lands (docs/performance.md);
    ``node`` is the last skipped node.  The message then enters the stop
    node: delivered by the landing itself, or by a real send from
    ``node`` where the link into the stop was not pristine at launch.
    """

    t: float
    kind: str  # "bat" | "request"
    bat_id: int
    node: int
    hops: int


@dataclass(slots=True)
class TimeGrantIssued:
    """A partition granted the kernel permission to advance to ``eot``.

    The conservative-lookahead null message (docs/parallel.md): the
    partition promises to send no cross-partition message that could be
    delivered before its earliest output time.  ``bound`` names the
    binding constraint ("idle", "inflight", "query", "inbound").
    """

    t: float
    partition: int
    eot: float
    bound: str


@dataclass(slots=True)
class PartitionSynced:
    """The partitioned kernel committed one synchronization window.

    All partitions executed every event strictly before ``window`` and
    exchanged ``messages`` cross-partition deliveries (docs/parallel.md).
    """

    t: float
    window: float
    partitions: int
    messages: int


@dataclass(slots=True)
class SimEventFired:
    """The discrete-event engine dispatched one callback."""

    t: float
    seq: int
    fn: str
    node: Optional[int] = None
