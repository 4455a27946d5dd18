"""Closed-loop overload control (docs/overload.md).

The admission machinery that predates this module is *open loop*: the
detector-driven shedding valve of :class:`ResilienceManager` reacts to
membership, the byte valve of :class:`RingDatabase` reacts to
instantaneous inflight pressure -- neither looks at whether the
deployment is actually meeting its latency objective.  The
:class:`OverloadController` closes that loop.

It subscribes to the query lifecycle on every ring bus, folds finishes
and sheds into a sliding :class:`~repro.metrics.window.WindowedHealth`
(rolling p99, throughput, shed rate -- per engine class and combined),
and runs a periodic control tick that compares the rolling p99 against
the SLO target:

* **brownout** -- while the p99 is above target, the shed level rises
  one priority tier per tick: tier-0 (best effort) traffic is refused
  first, the top tier last.  Recovery is hysteretic: the level steps
  down only after ``recover_patience`` consecutive ticks below
  ``recover_fraction`` of the target, so the valve does not flap.
* **topology guard** -- while fragment migrations are in flight (or
  just finished), the *effective* shed level is tightened by
  ``TOPOLOGY_GUARD_TIERS`` (one tier): a ring split already pays a
  migration tax, and admitting the full load on top of it is how
  overload turns into collapse.
* **split nudge** -- after ``split_nudge_ticks`` consecutive overloaded
  ticks on a federation, the controller asks the split/merge controller
  to activate a standby ring for the busiest active ring, instead of
  waiting for the buffer-load watermarks to notice.

The controller is strictly opt-in: nothing constructs one unless a
scenario (or user code) does, so the default event streams are
bit-identical to the pre-controller goldens.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from repro.core.query import QuerySpec
from repro.events import types as ev
from repro.metrics.window import WindowedHealth

__all__ = ["OverloadPolicy", "OverloadController"]

# extra tiers shed while fragment migrations are in flight/recent
TOPOLOGY_GUARD_TIERS = 1


@dataclass(frozen=True)
class OverloadPolicy:
    """Knobs of one closed-loop overload controller."""

    # the objective: rolling p99 of admitted-query latency, seconds
    target_p99: float
    # sliding window the health signals are computed over, seconds
    window: float = 2.0
    # control tick period, seconds
    tick_interval: float = 0.25
    # number of priority tiers (QuerySpec.tier in [0, n_tiers))
    n_tiers: int = 3
    # don't judge the p99 until the window holds this many finishes
    min_samples: int = 16
    # hysteresis: recovery requires p99 <= recover_fraction * target ...
    recover_fraction: float = 0.6
    # ... for this many consecutive ticks before the level steps down
    recover_patience: int = 4
    # how long after the last migration the guard stays engaged, seconds
    topology_guard_window: float = 1.0
    # consecutive overloaded ticks before nudging a ring split (0 = off)
    split_nudge_ticks: int = 0

    def __post_init__(self) -> None:
        if self.target_p99 <= 0:
            raise ValueError("target_p99 must be positive")
        if self.n_tiers < 1:
            raise ValueError("n_tiers must be at least 1")
        if not 0.0 < self.recover_fraction <= 1.0:
            raise ValueError("recover_fraction must be in (0, 1]")
        if self.tick_interval <= 0:
            raise ValueError("tick_interval must be positive")


class OverloadController:
    """SLO-driven admission over one deployment (ring or federation)."""

    def __init__(self, deployment, policy: OverloadPolicy) -> None:
        self.deployment = deployment
        self.policy = policy
        self.sim = deployment.sim
        rings = getattr(deployment, "rings", None)
        self._ring_buses = [r.bus for r in rings] if rings else [deployment.bus]
        # the control bus: where state changes and tier sheds are
        # published (the federation bus for a federation, the ring bus
        # for a classic deployment)
        self.bus = deployment.bus
        self.health = WindowedHealth(policy.window)

        # admission state
        self.shed_level = 0
        self._healthy_ticks = 0
        self._overloaded_ticks = 0
        self._migrations = 0
        self._last_migration_t = float("-inf")
        self._started = False

        # headline counters (deterministic; surfaced by stats())
        self.offered = 0
        self.offered_by_tier: Dict[int, int] = {}
        self.shed_by_tier: Dict[int, int] = {}
        self.level_changes = 0
        self.max_level = 0

        # per-query records of registered queries: registration time
        # (the Little's-law inflight count) and engine class
        self._registered: Dict[int, float] = {}
        self._engine_of: Dict[int, str] = {}

        for bus in self._ring_buses:
            bus.subscribe(ev.QueryRegistered, self._on_registered)
            bus.subscribe(ev.QueryFinished, self._on_finished)
            bus.subscribe(ev.QueryFailed, self._on_failed)
            bus.subscribe(ev.QueryShed, self._on_shed_event)
            bus.subscribe(ev.QpuQueryRouted, self._on_routed)
        if rings:
            self.bus.subscribe(ev.MigrationStarted, self._on_migration_started)
            self.bus.subscribe(ev.FragmentMigrated, self._on_migration_ended)
            self.bus.subscribe(ev.MigrationAborted, self._on_migration_ended)
            self.bus.subscribe(ev.RingSplit, self._on_topology_change)
            self.bus.subscribe(ev.RingsMerged, self._on_topology_change)

    # ------------------------------------------------------------------
    # lifecycle observation
    # ------------------------------------------------------------------
    def _on_registered(self, e: ev.QueryRegistered) -> None:
        self._registered[e.query_id] = e.t

    def _on_routed(self, e: ev.QpuQueryRouted) -> None:
        if e.query_id in self._registered:
            self._engine_of[e.query_id] = e.engine

    def _release(self, query_id: int) -> str:
        self._registered.pop(query_id, None)
        return self._engine_of.pop(query_id, "")

    def _on_finished(self, e: ev.QueryFinished) -> None:
        registered = self._registered.get(e.query_id)
        cls = self._release(e.query_id)
        if registered is not None:
            self.health.note_finish(e.t, e.t - registered, cls)

    def _on_failed(self, e: ev.QueryFailed) -> None:
        self._release(e.query_id)

    def _on_shed_event(self, e: ev.QueryShed) -> None:
        # a downstream valve (executor count/byte valve, detector-driven
        # shedding) refused a query: fold the shed into the health
        # signal -- unless this controller was the refuser (its callers
        # tag that echo "tier-shed"), in which case admit() counted it
        if e.reason == "tier-shed":
            return
        cls = self._release(e.query_id)
        self.health.note_shed(e.t, cls or e.engine)

    def _on_migration_started(self, _e) -> None:
        self._migrations += 1

    def _on_migration_ended(self, e) -> None:
        self._migrations = max(0, self._migrations - 1)
        self._last_migration_t = e.t

    def _on_topology_change(self, e) -> None:
        self._last_migration_t = e.t

    # ------------------------------------------------------------------
    # the control loop
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule the first control tick (idempotent)."""
        if self._started:
            return
        self._started = True
        self.sim.post(self.policy.tick_interval, self._tick)

    def predicted_latency(self) -> float:
        """Little's-law drain-time estimate: inflight / throughput.

        The rolling p99 of *completions* is a lagging signal -- a query
        stuck in a 10-second queue only pushes the p99 up when it
        finally finishes, long after admission should have tightened.
        The inflight count over the windowed completion rate predicts
        that latency while the queue is still building.  Throughput is
        floored at one completion per window so an empty window reads
        as slow, not as infinitely fast.
        """
        inflight = len(self._registered)
        if not inflight:
            return 0.0
        throughput = max(
            self.health.throughput(self.sim.now), 1.0 / self.policy.window
        )
        return inflight / throughput

    def _tick(self) -> None:
        now = self.sim.now
        pol = self.policy
        self.health.evict(now)
        count = self.health.sample_count()
        p99 = self.health.p99()
        predicted = self.predicted_latency()
        breached = (count >= pol.min_samples and p99 > pol.target_p99) or (
            len(self._registered) >= pol.min_samples
            and predicted > pol.target_p99
        )
        signal = max(p99, predicted)
        if breached:
            self._healthy_ticks = 0
            self._overloaded_ticks += 1
            if self.shed_level < pol.n_tiers - 1:
                self._set_level(self.shed_level + 1, signal)
            self._maybe_nudge_split()
        else:
            # Recovery judges the *current* regime: stragglers admitted
            # during the episode complete with episode-sized latencies
            # long after conditions improved, so the plain windowed p99
            # would hold the valve shut for a full extra horizon.  The
            # fresh p99 (completions that also started inside the
            # window) decays as soon as newly-admitted queries are fast.
            bar = pol.recover_fraction * pol.target_p99
            fresh = self.health.fresh_p99(now)
            recovered = (
                self.health.fresh_count(now) == 0 or fresh <= bar
            ) and predicted <= bar
            self._overloaded_ticks = 0
            if recovered:
                self._healthy_ticks += 1
                if self._healthy_ticks >= pol.recover_patience and self.shed_level > 0:
                    self._healthy_ticks = 0
                    self._set_level(self.shed_level - 1, signal)
            else:
                self._healthy_ticks = 0
        self.sim.post(pol.tick_interval, self._tick)

    def _set_level(self, level: int, p99: float) -> None:
        self.shed_level = level
        self.level_changes += 1
        self.max_level = max(self.max_level, level)
        if self.bus.active:
            self.bus.publish(ev.OverloadStateChanged(
                self.sim.now, level, self.state, p99
            ))

    @property
    def state(self) -> str:
        if self.shed_level == 0:
            return "normal"
        if self.shed_level >= self.policy.n_tiers - 1:
            return "overload"
        return "brownout"

    def _maybe_nudge_split(self) -> None:
        pol = self.policy
        if pol.split_nudge_ticks <= 0:
            return
        if self._overloaded_ticks < pol.split_nudge_ticks:
            return
        splitmerge = getattr(self.deployment, "splitmerge", None)
        if splitmerge is None:
            return
        # cooldown: while a migration is in flight (or just drained),
        # another split would only thrash topology the guard is already
        # taxing -- wait out the guard window instead
        if self._migrations > 0 or (
            self.sim.now - self._last_migration_t < pol.topology_guard_window
        ):
            return
        fed = self.deployment
        busiest, busiest_load = None, -1.0
        for ring_id in fed.active_rings:
            nodes = [n for n in fed.rings[ring_id].nodes if not n.crashed]
            if not nodes:
                continue
            load = sum(n.buffer_load for n in nodes) / len(nodes)
            if load > busiest_load:
                busiest, busiest_load = ring_id, load
        self._overloaded_ticks = 0
        if busiest is not None:
            splitmerge.request_split(busiest)

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def effective_level(self) -> int:
        """The shed level with the topology guard folded in."""
        level = self.shed_level
        pol = self.policy
        guarded = self._migrations > 0 or (
            self.sim.now - self._last_migration_t < pol.topology_guard_window
        )
        if guarded and level > 0:
            level = min(level + TOPOLOGY_GUARD_TIERS, pol.n_tiers - 1)
        return level

    def admit(self, spec: QuerySpec) -> bool:
        """Decide one query by its tier against the effective level.

        Publishes :class:`~repro.events.types.TierShed` on refusal but
        *not* :class:`QueryShed` -- the caller owns that event, so the
        retrier path and the standalone gate each publish exactly one,
        tagged ``reason="tier-shed"``.
        """
        tier = min(getattr(spec, "tier", 0), self.policy.n_tiers - 1)
        self.offered += 1
        self.offered_by_tier[tier] = self.offered_by_tier.get(tier, 0) + 1
        if tier >= self.effective_level():
            return True
        self.shed_by_tier[tier] = self.shed_by_tier.get(tier, 0) + 1
        self.health.note_shed(self.sim.now, "")
        if self.bus.active:
            self.bus.publish(
                ev.TierShed(self.sim.now, spec.query_id, tier, spec.node)
            )
        return False

    # ------------------------------------------------------------------
    # the standalone submission gate
    # ------------------------------------------------------------------
    def submit(self, spec: QuerySpec):
        """Admission-gated ``deployment.submit``.

        Future arrivals are decided *at* their arrival time (the valve
        state then is what matters, not the state at enqueue time).
        Returns the dispatched :class:`~repro.sim.process.Process`, or
        None when the query was shed or deferred.
        """
        if spec.arrival > self.sim.now:
            self.sim.post(spec.arrival - self.sim.now, self._decide, spec)
            return None
        return self._decide(spec)

    def _decide(self, spec: QuerySpec):
        if not self.admit(spec):
            if self.bus.active:
                self.bus.publish(
                    ev.QueryShed(
                        self.sim.now, spec.query_id, spec.node,
                        reason="tier-shed",
                    )
                )
            return None
        if spec.arrival != self.sim.now:
            spec = replace(spec, arrival=self.sim.now)
        return self.deployment.submit(spec)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Deterministic headline numbers for reports and extras."""
        now = self.sim.now
        per_class = {
            cls: {
                "p99": round(self.health.p99(cls), 6),
                "shed_rate": round(self.health.shed_rate(now, cls), 6),
            }
            for cls in self.health.classes()
        }
        return {
            "offered": self.offered,
            "offered_by_tier": dict(sorted(self.offered_by_tier.items())),
            "shed_by_tier": dict(sorted(self.shed_by_tier.items())),
            "level": self.shed_level,
            "max_level": self.max_level,
            "level_changes": self.level_changes,
            "predicted_latency": round(self.predicted_latency(), 6),
            "window_p99": round(self.health.p99(), 6),
            "window_throughput": round(self.health.throughput(now), 6),
            "window_shed_rate": round(self.health.shed_rate(now), 6),
            "per_class": per_class,
        }
