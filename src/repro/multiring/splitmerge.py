"""The split/merge controller (docs/multiring.md).

The pulsating-ring rule of section 6.3 grows or shrinks *one* ring by
node utilisation.  At federation level the same local signals -- each
node's BAT-queue load, folded through a per-ring
:class:`~repro.xtn.pulsating.PulsatingController` -- drive a coarser
decision: **split** a ring whose nodes keep calling for reinforcements
by activating a standby ring and pushing half of its hottest fragments
there, and **merge** a ring whose nodes keep volunteering to leave by
draining its fragments into the least-loaded sibling and retiring it.

Both operations are just batches of placement-manager migrations, so
they inherit the quiesce/ship/cutover protocol and its failure
semantics for free.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from repro.events import types as ev
from repro.xtn.pulsating import PulsatingController

if TYPE_CHECKING:  # pragma: no cover
    from repro.multiring.federation import RingFederation

__all__ = ["SplitMergeController"]

MERGE_LOW_WATERMARK = 0.10  # mean BAT-queue load to merge at


class SplitMergeController:
    """Watches per-ring load; activates standbys and retires idlers."""

    def __init__(self, fed: "RingFederation"):
        self.fed = fed
        self.sim = fed.sim
        self.bus = fed.bus
        self.config = fed.config
        self.controllers: Dict[int, PulsatingController] = {}
        for ring_id in range(len(fed.rings)):
            self.controllers[ring_id] = PulsatingController(
                leave_threshold=MERGE_LOW_WATERMARK,
                join_threshold=self.config.split_high_watermark,
                patience=self.config.splitmerge_patience,
                bus=self.bus,
                ring=ring_id,
                clock=lambda: self.sim.now,
            )
        # consecutive ticks each ring spent past a watermark
        self._hot_streak: Dict[int, int] = {}
        self._cold_streak: Dict[int, int] = {}
        self._started = False
        self.splits = 0
        self.merges = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started or self.config.splitmerge_interval <= 0:
            return
        self._started = True
        self.sim.post(self.config.splitmerge_interval, self._tick)

    def _tick(self) -> None:
        for ring_id in list(self.fed.active_rings):
            self._observe_ring(ring_id)
        self.sim.post(self.config.splitmerge_interval, self._tick)

    def _observe_ring(self, ring_id: int) -> None:
        ring = self.fed.rings[ring_id]
        controller = self.controllers[ring_id]
        loads = []
        for node in ring.nodes:
            if node.crashed:
                continue
            load = node.buffer_load
            loads.append(load)
            controller.observe(node.node_id, load)
        if not loads:
            return
        mean = sum(loads) / len(loads)
        if mean > self.config.split_high_watermark:
            self._hot_streak[ring_id] = self._hot_streak.get(ring_id, 0) + 1
            self._cold_streak[ring_id] = 0
        elif mean < MERGE_LOW_WATERMARK:
            self._cold_streak[ring_id] = self._cold_streak.get(ring_id, 0) + 1
            self._hot_streak[ring_id] = 0
        else:
            self._hot_streak[ring_id] = 0
            self._cold_streak[ring_id] = 0
        patience = self.config.splitmerge_patience
        if self._hot_streak.get(ring_id, 0) >= patience:
            self._hot_streak[ring_id] = 0
            self._split(ring_id)
        elif self._cold_streak.get(ring_id, 0) >= patience:
            self._cold_streak[ring_id] = 0
            self._merge(ring_id)

    # ------------------------------------------------------------------
    def request_split(self, ring_id: int) -> bool:
        """Split ``ring_id`` now, outside the watermark/patience loop.

        The overload controller's placement knob (docs/overload.md):
        a sustained SLO breach can force capacity online without waiting
        for the buffer-load streak to accumulate.  Returns False when
        the ring is not active or the standby pool is exhausted.
        """
        if ring_id not in self.fed.active_rings:
            return False
        return self._split(ring_id)

    def _split(self, ring_id: int) -> bool:
        standby = self.fed.next_standby_ring()
        if standby is None:
            return False  # the standby pool is exhausted; nothing to split into
        self.fed.activate_ring(standby)
        fragments = self._hottest_fragments(ring_id)
        half = fragments[: max(1, len(fragments) // 2)] if fragments else []
        for bat_id in half:
            self.fed.placement.request_migration(bat_id, standby)
        self.splits += 1
        if self.bus.active:
            self.bus.publish(ev.RingSplit(
                self.sim.now, ring_id, standby, len(half)
            ))
        return True

    def _merge(self, ring_id: int) -> None:
        others = [r for r in self.fed.active_rings if r != ring_id]
        if not others:
            return  # the last ring stays, however idle
        target = min(others, key=lambda r: (self.fed.catalog.bytes_on(r), r))
        fragments = self.fed.catalog.bats_on(ring_id)
        for bat_id in fragments:
            self.fed.placement.request_migration(bat_id, target)
        self.fed.deactivate_ring(ring_id)
        self.merges += 1
        if self.bus.active:
            self.bus.publish(ev.RingsMerged(
                self.sim.now, ring_id, target, len(fragments)
            ))

    def _hottest_fragments(self, ring_id: int) -> List[int]:
        """The ring's fragments, most-interesting first (home-ring EWMA)."""
        interest = self.fed.placement.interest

        def heat(bat_id: int) -> float:
            return interest.get((ring_id, bat_id), 0.0)

        fragments = self.fed.catalog.bats_on(ring_id)
        fragments.sort(key=lambda b: (-heat(b), b))
        return fragments

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        leave_events = sum(len(c.leave_events) for c in self.controllers.values())
        join_calls = sum(c.join_calls for c in self.controllers.values())
        return {
            "ring_splits": self.splits,
            "rings_merged": self.merges,
            "leave_events": leave_events,
            "join_calls": join_calls,
        }
