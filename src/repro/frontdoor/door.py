"""FrontDoor: statistics-driven admission, tiers and deadlines.

The workload generators used to post fully-formed requests straight
into the simulator; cost knowledge only existed *after* a QPU compiled.
The front door inverts that: every arrival is priced by the database's
:class:`~repro.dbms.statistics.QueryEstimator` first
(``RingDatabase.estimator``, the one the dispatcher's valves price
with), and the *predicted* footprint drives three decisions the paper
assumes are made before a query rides the ring:

* **tier** -- smaller predicted footprint = higher tier = more
  protected.  A point probe should never die behind a full scan.
* **deadline** -- proportional to the predicted bytes over the ring
  bandwidth, floored for fixed costs.
* **admission** -- a tier-sliced valve over the database's inflight
  bytes (the blind dispatcher valve weighs the same bytes but knows no
  tiers).

Every decision is published as typed events (``QueryEstimated``,
``FrontDoorAdmitted`` / ``FrontDoorRejected`` + ``QueryShed`` with
``reason="front-door-estimate"``), and every completion closes the
loop: predicted-vs-actual goes back into the estimator
(``EstimateFeedback``), which `repro stats` reports per query class.

The door is a sim-actor: ``offer()`` schedules the admission decision
*at arrival time*, so the valve sees the true inflight state of the
moment -- exactly like the overload controller's ``submit`` gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import repro.events.types as ev
from repro.dbms.executor import QueryHandle, RingDatabase
from repro.dbms.statistics import EstimateError, QueryEstimate, QueryEstimator

__all__ = ["FrontDoor", "FrontDoorPolicy", "Ticket"]

# deadline = DEADLINE_FLOOR + DEADLINE_SCALE * predicted bytes / bandwidth
DEADLINE_FLOOR = 0.5    # seconds: fixed costs of even a zero-byte query
DEADLINE_SCALE = 20.0   # multiples of the bytes' time on one link


@dataclass
class FrontDoorPolicy:
    """Knobs of the serving tier.

    ``tier_boundaries`` are ascending predicted-bytes thresholds, one
    fewer than :attr:`n_tiers`: a prediction at or below
    ``boundaries[i]`` lands in tier ``n_tiers - 1 - i`` (the smallest
    queries get the highest, most-protected tier).  ``byte_budget``
    caps the database's inflight bytes with tier-proportional slices:
    tier ``k`` may fill ``(k + 1) / n_tiers`` of the budget, so
    best-effort scans run out of room first.  An empty valve always
    admits.
    """

    tier_boundaries: Tuple[int, ...] = (64 * 1024, 1024 * 1024)
    byte_budget: Optional[int] = None
    reject_above_bytes: Optional[int] = None  # single-query hard cap
    admission: str = "estimate"  # "estimate" | "none" (observe only)
    tag_tiers: bool = False      # tag registrations tier<k> instead of engine

    def __post_init__(self) -> None:
        # a misspelt mode would otherwise switch admission off quietly,
        # and an unsorted boundary list leaves tiers unreachable
        if self.admission not in ("estimate", "none"):
            raise ValueError(
                f"admission must be 'estimate' or 'none', got {self.admission!r}"
            )
        bounds = tuple(self.tier_boundaries)
        if any(lo >= hi for lo, hi in zip(bounds, bounds[1:])):
            raise ValueError(
                f"tier_boundaries must be strictly ascending, got {bounds}"
            )

    @property
    def n_tiers(self) -> int:
        """One tier more than there are boundaries."""
        return len(self.tier_boundaries) + 1

    def tier_for(self, footprint_bytes: int) -> int:
        tier = len(self.tier_boundaries)
        for bound in self.tier_boundaries:
            if footprint_bytes <= bound:
                return tier
            tier -= 1
        return 0


@dataclass
class Ticket:
    """One request's walk through the door."""

    query_id: int
    node: int
    estimate: QueryEstimate
    tier: int
    deadline: float
    admitted_at: float
    handle: Optional[QueryHandle] = None
    outcome: str = "inflight"   # inflight | finished | failed | shed
    service_time: Optional[float] = None
    within_deadline: Optional[bool] = None


@dataclass
class _TierTally:
    offered: int = 0
    admitted: int = 0
    rejected: int = 0
    shed_downstream: int = 0
    finished: int = 0
    failed: int = 0
    good: int = 0   # finished within the per-query deadline


class FrontDoor:
    """The serving tier in front of one :class:`RingDatabase`."""

    def __init__(
        self,
        rdb: RingDatabase,
        policy: Optional[FrontDoorPolicy] = None,
    ):
        self.rdb = rdb
        self.policy = policy or FrontDoorPolicy()
        # summarise the loaded tables now rather than at the first arrival
        _ = rdb.estimator
        self.tickets: Dict[int, Ticket] = {}
        self.offered = 0
        self.admitted = 0
        self.rejected = 0
        self.rejected_by_cause: Dict[str, int] = {}
        self.peak_estimated_inflight_bytes = 0
        self.by_tier: Dict[int, _TierTally] = {
            t: _TierTally() for t in range(self.policy.n_tiers)
        }
        self._bandwidth = float(rdb.dc.config.bandwidth)
        bus = rdb.dc.bus
        bus.subscribe(ev.QueryFinished, self._on_finished)
        bus.subscribe(ev.QueryFailed, self._on_failed)
        bus.subscribe(ev.QueryShed, self._on_shed)

    @property
    def estimator(self) -> QueryEstimator:
        """The database's estimator: the door and the dispatcher's
        valves price on one statistics catalog."""
        return self.rdb.estimator

    @property
    def estimated_inflight_bytes(self) -> int:
        """The dispatcher's ledger, the door's only book: footprint
        bytes of every query whose process has not ended (estimated
        or compiled, which agree byte for byte)."""
        return self.rdb._inflight_bytes

    # ------------------------------------------------------------------
    # the open-loop arrival surface
    # ------------------------------------------------------------------
    def offer(self, request: Any, node: int = 0,
              arrival: Optional[float] = None) -> None:
        """Schedule one arrival; the admission verdict happens *at*
        arrival time, when the valve state is the one that matters."""
        sim = self.rdb.dc.sim
        if arrival is None or arrival <= sim.now:
            self._arrive(request, node)
        else:
            sim.post(arrival - sim.now, self._arrive, request, node)

    def offer_all(self, submissions) -> int:
        """Schedule ``(arrival, node, request)`` triples; returns count."""
        count = 0
        for arrival, node, request in submissions:
            self.offer(request, node=node, arrival=arrival)
            count += 1
        return count

    # ------------------------------------------------------------------
    def _arrive(self, request: Any, node: int) -> None:
        sim = self.rdb.dc.sim
        bus = self.rdb.dc.bus
        now = sim.now
        self.offered += 1
        # the id the dispatcher will assign; a refusal consumes it too
        query_id = self.rdb.next_query_id
        try:
            est = self.estimator.estimate(request)
        except EstimateError:
            # unpriced: offered and rejected in the lowest tier
            self.by_tier[0].offered += 1
            self._reject(query_id, node, None, 0, "estimate-error")
            return
        tier = self.policy.tier_for(est.footprint_bytes)
        deadline = DEADLINE_FLOOR + DEADLINE_SCALE * est.footprint_bytes / self._bandwidth
        self.by_tier[tier].offered += 1
        if bus.active:
            bus.publish(ev.QueryEstimated(
                t=now, query_id=query_id, node=node, engine=est.engine,
                footprint_bytes=est.footprint_bytes, cost=est.cost,
                selectivity=est.selectivity, tier=tier, deadline=deadline,
            ))
        cause = self._admission_cause(est, tier)
        if cause is not None:
            self._reject(query_id, node, est, tier, cause)
            return
        # the ticket must exist *before* the dispatcher sees the query:
        # its blind valve sheds synchronously inside submit_request, and
        # that QueryShed must find the ticket to settle
        ticket = Ticket(
            query_id=query_id, node=node, estimate=est, tier=tier,
            deadline=deadline, admitted_at=now,
        )
        self.tickets[query_id] = ticket
        self.admitted += 1
        self.by_tier[tier].admitted += 1
        self.peak_estimated_inflight_bytes = max(
            self.peak_estimated_inflight_bytes,
            self.estimated_inflight_bytes + est.footprint_bytes,
        )
        if bus.active:
            bus.publish(ev.FrontDoorAdmitted(
                t=now, query_id=query_id, node=node, engine=est.engine,
                tier=tier, deadline=deadline,
                estimated_bytes=est.footprint_bytes,
            ))
        tag = f"tier{tier}" if self.policy.tag_tiers else None
        handle = self.rdb.submit_request(request, node=node, tag=tag)
        assert handle.query_id == query_id
        ticket.handle = handle

    def _admission_cause(self, est: QueryEstimate, tier: int) -> Optional[str]:
        """None admits; otherwise the rejection cause."""
        pol = self.policy
        if pol.admission != "estimate":
            return None
        if (
            pol.reject_above_bytes is not None
            and est.footprint_bytes > pol.reject_above_bytes
        ):
            return "single-query-cap"
        if pol.byte_budget is not None:
            inflight = self.estimated_inflight_bytes
            cap = pol.byte_budget * (tier + 1) / pol.n_tiers
            if inflight and inflight + est.footprint_bytes > cap:
                return "budget"
        return None

    def _reject(
        self, query_id: int, node: int, est: Optional[QueryEstimate],
        tier: int, cause: str,
    ) -> None:
        self.rdb.skip_query_id()
        self.rejected += 1
        self.rejected_by_cause[cause] = (
            self.rejected_by_cause.get(cause, 0) + 1
        )
        self.by_tier[tier].rejected += 1
        bus = self.rdb.dc.bus
        now = self.rdb.dc.sim.now
        engine = est.engine if est is not None else ""
        nbytes = est.footprint_bytes if est is not None else 0
        if bus.active:
            bus.publish(ev.FrontDoorRejected(
                t=now, query_id=query_id, node=node, engine=engine,
                tier=tier, estimated_bytes=nbytes, cause=cause,
            ))
            bus.publish(ev.QueryShed(
                now, query_id, node, engine=engine,
                reason="front-door-estimate",
            ))

    # ------------------------------------------------------------------
    # completion: settle the ticket, close the feedback loop
    # ------------------------------------------------------------------
    def _settle(self, query_id: int, t: float, outcome: str) -> None:
        ticket = self.tickets.get(query_id)
        if ticket is None or ticket.outcome != "inflight":
            return
        ticket.outcome = outcome
        tally = self.by_tier[ticket.tier]
        if outcome == "shed":
            tally.shed_downstream += 1
            return
        ticket.service_time = t - ticket.admitted_at
        if outcome == "failed":
            tally.failed += 1
            return
        tally.finished += 1
        ticket.within_deadline = ticket.service_time <= ticket.deadline
        if ticket.within_deadline:
            tally.good += 1
        actual = ticket.handle.footprint_bytes if ticket.handle else 0
        self.estimator.record(
            ticket.estimate, actual, service_time=ticket.service_time
        )
        bus = self.rdb.dc.bus
        if bus.active:
            bus.publish(ev.EstimateFeedback(
                t=t, query_id=query_id, engine=ticket.estimate.engine,
                query_class=ticket.estimate.query_class,
                predicted_bytes=ticket.estimate.footprint_bytes,
                actual_bytes=actual,
                predicted_cost=ticket.estimate.cost,
                service_time=ticket.service_time,
            ))

    def _on_finished(self, e: ev.QueryFinished) -> None:
        self._settle(e.query_id, e.t, "finished")

    def _on_failed(self, e: ev.QueryFailed) -> None:
        self._settle(e.query_id, e.t, "failed")

    def _on_shed(self, e: ev.QueryShed) -> None:
        # the dispatcher's byte valve refused a query the door had
        # already admitted; the door's own refusals have no ticket, so
        # _settle ignores them
        self._settle(e.query_id, e.t, "shed")

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Deterministic headline numbers for scenario extras."""
        return {
            "offered": self.offered,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "rejected_by_cause": dict(sorted(self.rejected_by_cause.items())),
            "peak_estimated_inflight_bytes":
                self.peak_estimated_inflight_bytes,
            "by_tier": {
                tier: {
                    "offered": tally.offered,
                    "admitted": tally.admitted,
                    "rejected": tally.rejected,
                    "shed_downstream": tally.shed_downstream,
                    "finished": tally.finished,
                    "failed": tally.failed,
                    "good": tally.good,
                }
                for tier, tally in sorted(self.by_tier.items())
            },
        }

    def goodput(self, tier: int, duration: float) -> float:
        """Deadline-met completions per second for one tier."""
        if duration <= 0:
            return 0.0
        return self.by_tier[tier].good / duration

    def accuracy_report(self) -> Dict[str, dict]:
        return self.estimator.accuracy_report()
