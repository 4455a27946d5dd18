"""Query retry/failover: attempts, backoff, deadlines, epoch suppression.

A logical query submitted through the :class:`QueryRetrier` is executed
as a sequence of *attempts*.  Each attempt is an ordinary
:class:`~repro.core.query.QuerySpec` dispatched through the facade --
but retries carry a fresh query id from a reserved namespace, so the
per-attempt bookkeeping (metrics records, S2/S3 state, events) of a
superseded attempt can never clobber the attempt that replaced it.

Failover policy:

* attempts that fail with a *retryable* error (``NODE_CRASHED``,
  ``DATA_UNAVAILABLE``) are re-dispatched to a believed-live node with
  exponential backoff and +-jitter,
* attempts are capped (``retry_max_attempts``) and optionally bounded by
  a per-query deadline measured from the first arrival,
* an optional per-attempt timeout abandons an attempt that produced no
  outcome and re-dispatches immediately; the superseded attempt keeps
  running to its natural end (killing it would corrupt ring state) but
  its eventual result is discarded by the epoch tag and published as
  :class:`~repro.events.types.StaleResultDiscarded`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.query import QuerySpec
from repro.core.runtime import DATA_UNAVAILABLE, NODE_CRASHED
from repro.events import types as ev

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.manager import ResilienceManager

__all__ = ["QueryRetrier", "RetryState", "ATTEMPT_ID_BASE"]

# Retry attempts draw query ids from this namespace so they can never
# collide with workload-assigned ids.
ATTEMPT_ID_BASE = 1_000_000_000

RETRYABLE = frozenset({NODE_CRASHED, DATA_UNAVAILABLE})


@dataclass
class RetryState:
    """Lifecycle of one logical query under the retry manager."""

    spec: QuerySpec
    deadline: Optional[float]
    attempts: int = 0
    epoch: int = 0              # bumped per dispatch; stale attempts mismatch
    done: bool = False
    succeeded: bool = False
    shed: bool = False
    error: Optional[str] = None
    finished_at: Optional[float] = None
    attempt_nodes: List[int] = field(default_factory=list)
    _timer: object = None       # pending attempt-timeout Event, if any

    @property
    def latency(self) -> Optional[float]:
        """Arrival-to-final-completion latency of a successful query."""
        if not self.succeeded or self.finished_at is None:
            return None
        return self.finished_at - self.spec.arrival


class QueryRetrier:
    """Dispatches logical queries as retryable attempts on the facade."""

    def __init__(self, manager: "ResilienceManager"):
        self.manager = manager
        self.dc = manager.dc
        self.sim = manager.sim
        self.bus = manager.bus
        self.config = manager.config
        self.rng = self.dc.rng.stream("retry")
        self.states: Dict[int, RetryState] = {}
        self._next_attempt_id = ATTEMPT_ID_BASE
        # retry budget: a token bucket capping retry *amplification*
        # (docs/overload.md).  None = unlimited, the historical behaviour.
        self._budget_tokens: Optional[float] = self.config.retry_budget_capacity
        self._budget_last = 0.0
        self.budget_exhausted = 0

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, spec: QuerySpec) -> RetryState:
        """Admit (or shed) one logical query and dispatch its first attempt."""
        if spec.query_id in self.states:
            raise ValueError(f"query {spec.query_id} already managed")
        deadline = (
            spec.arrival + self.config.retry_deadline
            if self.config.retry_deadline is not None
            else None
        )
        state = RetryState(spec=spec, deadline=deadline)
        self.states[spec.query_id] = state
        overload = getattr(self.manager, "overload", None)
        detector = self.manager.shedding
        if detector or (overload is not None and not overload.admit(spec)):
            state.done = True
            state.shed = True
            state.error = "SHED"
            state.finished_at = self.sim.now
            # the controller skips its own refusals' echo by this reason
            reason = "" if detector else "tier-shed"
            self.bus.publish(
                ev.QueryShed(self.sim.now, spec.query_id, spec.node, reason=reason)
            )
            return state
        self._dispatch(state, preferred=spec.node, arrival=spec.arrival)
        return state

    # ------------------------------------------------------------------
    # attempt machinery
    # ------------------------------------------------------------------
    def _dispatch(self, state: RetryState, preferred: int, arrival: float) -> None:
        node = self.manager.route(preferred)
        state.attempts += 1
        state.epoch += 1
        epoch = state.epoch
        state.attempt_nodes.append(node)
        if state.attempts == 1:
            attempt_id = state.spec.query_id
        else:
            attempt_id = self._next_attempt_id
            self._next_attempt_id += 1
        attempt = replace(state.spec, query_id=attempt_id, node=node, arrival=arrival)
        proc = self.dc.submit(attempt)
        proc.join().add_callback(
            lambda error, _s=state, _e=epoch: self._attempt_done(_s, _e, error)
        )
        if self.config.retry_attempt_timeout is not None:
            delay = (arrival - self.sim.now) + self.config.retry_attempt_timeout
            state._timer = self.sim.schedule(
                delay, self._attempt_timed_out, state, epoch
            )
        if state.attempts > 1:
            self.bus.publish(
                ev.QueryRetried(
                    self.sim.now,
                    state.spec.query_id,
                    state.attempts,
                    node,
                    state.error or "",
                )
            )

    def _cancel_timer(self, state: RetryState) -> None:
        if state._timer is not None:
            state._timer.cancel()
            state._timer = None

    def _attempt_done(self, state: RetryState, epoch: int, error) -> None:
        if state.done or epoch != state.epoch:
            self.bus.publish(
                ev.StaleResultDiscarded(self.sim.now, state.spec.query_id, epoch)
            )
            return
        self._cancel_timer(state)
        if error is None:
            state.done = True
            state.succeeded = True
            state.finished_at = self.sim.now
            return
        state.error = error
        if error not in RETRYABLE:
            self._terminal(state, error)
            return
        if state.attempts >= self.config.retry_max_attempts:
            self._terminal(state, error)
            return
        backoff = self.config.retry_backoff(state.attempts)
        if self.config.retry_jitter > 0:
            backoff *= 1.0 + self.config.retry_jitter * self.rng.uniform(-1.0, 1.0)
        arrival = self.sim.now + backoff
        if state.deadline is not None and arrival > state.deadline:
            self._terminal(state, error)
            return
        if not self._budget_allows(state):
            self._terminal(state, error)
            return
        # fail over: search for a live node starting past the failed one
        failed_node = state.attempt_nodes[-1]
        self._dispatch(state, preferred=failed_node + 1, arrival=arrival)

    def _attempt_timed_out(self, state: RetryState, epoch: int) -> None:
        if state.done or epoch != state.epoch:
            return
        state._timer = None
        state.error = state.error or "ATTEMPT_TIMEOUT"
        if (
            state.attempts >= self.config.retry_max_attempts
            or (state.deadline is not None and self.sim.now >= state.deadline)
        ):
            self._terminal(state, "ATTEMPT_TIMEOUT")
            return
        if not self._budget_allows(state):
            self._terminal(state, "ATTEMPT_TIMEOUT")
            return
        # supersede the stuck attempt (its eventual completion is
        # discarded by the epoch tag) and re-dispatch immediately
        failed_node = state.attempt_nodes[-1]
        self._dispatch(state, preferred=failed_node + 1, arrival=self.sim.now)

    def _budget_allows(self, state: RetryState) -> bool:
        """Take one retry token, refilling lazily; False = budget dry."""
        if self._budget_tokens is None:
            return True
        capacity = self.config.retry_budget_capacity
        refill = self.config.retry_budget_refill
        now = self.sim.now
        if refill > 0:
            self._budget_tokens = min(
                capacity, self._budget_tokens + (now - self._budget_last) * refill
            )
        self._budget_last = now
        if self._budget_tokens >= 1.0:
            self._budget_tokens -= 1.0
            return True
        self.budget_exhausted += 1
        self.bus.publish(
            ev.RetryBudgetExhausted(now, state.spec.query_id, state.attempts)
        )
        return False

    def _terminal(self, state: RetryState, error: str) -> None:
        self._cancel_timer(state)
        state.done = True
        state.error = error
        state.finished_at = self.sim.now
        self.bus.publish(
            ev.QueryAbandoned(
                self.sim.now, state.spec.query_id, state.attempts, error
            )
        )

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    @property
    def all_done(self) -> bool:
        return all(s.done for s in self.states.values())

    def latencies(self) -> List[float]:
        """Arrival-to-completion latencies of the successful queries."""
        out = [s.latency for s in self.states.values()]
        return [x for x in out if x is not None]

    def counts(self) -> Dict[str, int]:
        states = self.states.values()
        return {
            "managed": len(self.states),
            "succeeded": sum(1 for s in states if s.succeeded),
            "failed": sum(
                1 for s in states if s.done and not s.succeeded and not s.shed
            ),
            "shed": sum(1 for s in states if s.shed),
            "attempts": sum(s.attempts for s in states),
        }
